// Shared types of the scan benchmark (see perfbench/README.md).
//
// Both workloads train the same kind of victims in setup and scan each with
// USB and with Neural Cleanse (NC) at fixed budgets; they differ in the path
// a scan takes. `direct_cifar10` calls Detector::detect() itself, one scan at
// a time. `service_triage` submits the same scans to one DetectionService
// from one closed-loop client.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/probe_store.h"
#include "defenses/detector.h"
#include "exp/experiment.h"
#include "nn/models.h"
#include "service/detection_service.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // checkpoints and the span dump go here
};

[[nodiscard]] bool is_service_workload(const Options& options);

/// One victim model with its ground truth and its defender's probe.
struct Victim {
  Victim(std::string name, usb::Network model)
      : label(std::move(name)), network(std::move(model)) {}

  std::string label;        // "badnet" or "clean"
  std::int64_t target = -1;  // the BadNet target class; -1 for a clean model
  usb::Network network;
  usb::ProbeKey probe_key;
  usb::Dataset probe;
  float accuracy = 0.0F;
  float asr = 0.0F;
  double train_s = 0.0;  // every attempt, retries included
  std::int64_t retrains = 0;
  double probe_build_ms = 0.0;
  std::string checkpoint;  // service_triage only
};

struct Setup {
  std::vector<Victim> victims;
  std::unique_ptr<usb::DetectionService> service;  // service_triage only
};

/// Trains the victims (failing on the accuracy and ASR floors), builds
/// their probes and, for service_triage, checkpoints them and constructs
/// the service. Spans go to `recorder`.
[[nodiscard]] Setup make_setup(const Options& options, SpanRecorder& recorder);

/// The service of service_triage, also used by the direct workload's traced
/// run: one scan admitted at a time, two round dispatchers, kernels inline.
[[nodiscard]] std::unique_ptr<usb::DetectionService> make_bench_service();

/// The detector a workload scans with: USB or NC at the benchmark's fixed
/// budget, built by the experiment harness's own factory.
[[nodiscard]] usb::DetectorPtr make_bench_detector(usb::MethodKind method);

/// One finished (or failed) scan of the measured phase.
struct ScanRecord {
  usb::MethodKind method = usb::MethodKind::kUsb;
  std::size_t victim = 0;
  double wall_s = 0.0;
  double submit_ms = 0.0;
  double queue_wait_s = 0.0;
  std::int64_t progress_events = 0;
  bool ok = false;  // kDone and no exception
  std::string error;
  usb::DetectionReport report;
};

/// True when the report's verdict matches the victim's ground truth: a
/// BadNet victim is flagged at exactly its target, a clean one not at all.
[[nodiscard]] bool verdict_correct(const usb::DetectionReport& report, const Victim& victim);

/// Submits one scan to `service` (the model by checkpoint, the probe by
/// key) and waits for its terminal status. With tracing on it also records
/// the admission wait.
[[nodiscard]] ScanRecord service_scan(usb::DetectionService& service, usb::MethodKind method,
                                      std::size_t index, const std::string& checkpoint,
                                      const usb::ProbeKey& probe_key, SpanRecorder& recorder,
                                      std::int64_t scan);

/// Runs one scan of victim `index` the workload's way: detect() itself, or
/// submitted to the service. `scan` numbers it in the span dump.
[[nodiscard]] ScanRecord run_scan(const Options& options, Setup& setup, usb::MethodKind method,
                                  std::size_t index, SpanRecorder& recorder, std::int64_t scan);

/// Runs one cycle of the workload's scans — each victim by USB and then by
/// NC, victim by victim — and appends the records. `scan_base` numbers the
/// cycle's scans in the span dump.
void run_cycle(const Options& options, Setup& setup, SpanRecorder& recorder,
               std::int64_t scan_base, std::vector<ScanRecord>& records);

/// Per-layer metrics of the traced invocation, by name, with units.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced invocation's layer replays: StagedScan stages, one
/// refinement step's calls, the kernels at that step's shapes, and the
/// Alg. 1 entry points. `reference` holds the cycle's records, which the
/// stage replay must reproduce bit for bit. Appends metrics; returns false
/// when a replay check fails (reason in `failure`).
bool run_layer_replays(const Options& options, Setup& setup,
                       const std::vector<ScanRecord>& reference, SpanRecorder& recorder,
                       std::vector<Metric>& metrics, std::string& failure);

}  // namespace perfbench
