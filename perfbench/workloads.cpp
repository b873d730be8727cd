// Setup and measured cycles of the two workloads.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "attacks/badnet.h"
#include "bench.h"
#include "data/synthetic.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "utils/rng.h"
#include "utils/timer.h"

namespace perfbench {
namespace {

// Victim recipe. BasicCnn on cifar10_like, trained directly rather than
// through the model zoo: at a size that trains in seconds, the zoo's
// default schedule learns a small BadNet patch on some seeds only, and
// larger learning rates leave some victims at chance accuracy. This one
// passed the floors below on 64 of 64 victims in a sweep and then missed
// once (a clean victim at 0.15 accuracy) in 20 benchmark runs. The floors
// make the ground-truth labels true.
constexpr std::int64_t kTrainSize = 600;
constexpr std::int64_t kTestSize = 300;
constexpr std::int64_t kEpochs = 6;
constexpr std::int64_t kTrainBatch = 32;
constexpr float kTrainLr = 0.02F;
constexpr float kTrainLrDecay = 0.85F;
constexpr std::int64_t kTriggerSize = 4;
constexpr double kPoisonRate = 0.25;
constexpr float kAccuracyFloor = 0.75F;
constexpr float kAsrFloor = 0.6F;
constexpr std::int64_t kTrainAttempts = 3;

// Scan budget, the same for every victim and seed: a 64-image probe, one
// Alg. 1 pass, 15 refinement steps and 30 NC steps. Smaller than the
// experiment presets so that the runs of both workloads fit the benchmark's
// time budget; early exit stays off, as shipped.
constexpr std::int64_t kProbeSize = 64;
constexpr std::int64_t kUsbRefineSteps = 15;
constexpr std::int64_t kUapPasses = 1;
constexpr std::int64_t kNcSteps = 30;

/// One training of a victim from the seed root `base`.
Victim train_attempt(const usb::DatasetSpec& spec, std::uint64_t base, bool backdoored,
                     SpanRecorder& recorder, std::int64_t parent) {
  Victim victim(backdoored ? "badnet" : "clean",
                usb::make_network(usb::Architecture::kBasicCnn, spec.channels, spec.image_size,
                                  spec.num_classes, usb::hash_combine(base, 3)));
  const ScopedSpan span(recorder, "exp.train_victim", parent, 0);
  const usb::Dataset train_set = usb::generate_dataset(spec, kTrainSize, usb::hash_combine(base, 1));
  const usb::Dataset test_set = usb::generate_dataset(spec, kTestSize, usb::hash_combine(base, 2));
  usb::TrainConfig train;
  train.epochs = kEpochs;
  train.batch_size = kTrainBatch;
  train.lr = kTrainLr;
  train.lr_decay = kTrainLrDecay;
  train.seed = usb::hash_combine(base, 4);
  if (backdoored) {
    usb::BadNetConfig attack_config;
    attack_config.trigger_size = kTriggerSize;
    attack_config.poison_rate = kPoisonRate;
    attack_config.target_class =
        static_cast<std::int64_t>(usb::hash_combine(base, 5) % spec.num_classes);
    attack_config.seed = usb::hash_combine(base, 6);
    usb::BadNet attack(attack_config, spec);
    (void)attack.train_backdoored(victim.network, train_set, train);
    victim.asr = attack.success_rate(victim.network, test_set);
    victim.target = attack_config.target_class;
  } else {
    (void)usb::train_network(victim.network, train_set, train);
  }
  victim.accuracy = usb::evaluate_accuracy(victim.network, test_set);
  return victim;
}

/// Trains a victim that meets its floors. A training that misses them (a
/// rare start that stays near chance accuracy) is repeated from the next
/// seed derived from the run's seed, as the model zoo retrains a victim
/// below its accuracy guard; the retry is printed and counted in
/// `exp.victim_retrains`. The run fails after kTrainAttempts misses.
Victim train_victim(const Options& options, bool backdoored, SpanRecorder& recorder,
                    std::int64_t parent) {
  const usb::DatasetSpec spec = usb::DatasetSpec::cifar10_like();
  const std::uint64_t base =
      usb::hash_combine(0x5ca7be7cULL, options.seed, backdoored ? 1ULL : 0ULL);
  const usb::Timer train_timer;
  std::string misses;
  for (std::int64_t attempt = 0;; ++attempt) {
    Victim victim = train_attempt(
        spec, attempt == 0 ? base : usb::hash_combine(base, 0xa77e, static_cast<std::uint64_t>(attempt)),
        backdoored, recorder, parent);
    if (victim.accuracy >= kAccuracyFloor && (!backdoored || victim.asr >= kAsrFloor)) {
      victim.retrains = attempt;
      victim.train_s = train_timer.seconds();
      victim.probe_key = usb::ProbeKey{spec, kProbeSize, usb::hash_combine(base, 7)};
      const usb::Timer probe_timer;
      {
        const ScopedSpan span(recorder, "data.probe_build", parent, 0);
        victim.probe = usb::generate_dataset(spec, kProbeSize, victim.probe_key.seed);
      }
      victim.probe_build_ms = probe_timer.milliseconds();
      return victim;
    }
    misses += " accuracy " + std::to_string(victim.accuracy) + ", ASR " +
              std::to_string(victim.asr) + ";";
    std::printf("victim %s attempt %lld below its floors (accuracy %.3f, ASR %.3f)\n",
                victim.label.c_str(), static_cast<long long>(attempt + 1), victim.accuracy,
                victim.asr);
    if (attempt + 1 == kTrainAttempts) {
      throw std::runtime_error("victim " + victim.label + " below its floors (accuracy " +
                               std::to_string(kAccuracyFloor) + ", ASR " +
                               std::to_string(kAsrFloor) + ") in every attempt:" + misses);
    }
  }
}

ScanRecord direct_scan(usb::MethodKind method, std::size_t index, Victim& victim,
                       SpanRecorder& recorder, std::int64_t scan) {
  ScanRecord record;
  record.method = method;
  record.victim = index;
  const usb::DetectorPtr detector = make_bench_detector(method);
  const usb::Timer timer;
  try {
    const ScopedSpan span(recorder, "scan.detect", -1, scan);
    record.report = detector->detect(victim.network, victim.probe);
    record.ok = true;
  } catch (const std::exception& error) {
    record.error = error.what();
  }
  record.wall_s = timer.seconds();
  return record;
}

}  // namespace

bool is_service_workload(const Options& options) { return options.workload == "service_triage"; }

std::unique_ptr<usb::DetectionService> make_bench_service() {
  // One closed-loop client, so one scan in flight, whose class items two
  // round dispatchers run two at a time, like detect()'s two pool workers.
  // A one-worker scan pool keeps each item's kernels inline on its
  // dispatcher. With two pool workers for the kernels to spill onto, four
  // threads shared the four cores, and host stalls moved the service's scan
  // times far more than detect()'s (see README.md).
  usb::DetectionServiceConfig config;
  config.scan_threads = 1;
  config.max_concurrent_scans = 1;
  config.round_dispatchers = 2;
  return std::make_unique<usb::DetectionService>(config);
}

usb::DetectorPtr make_bench_detector(usb::MethodKind method) {
  usb::MethodBudget budget;
  budget.usb_refine_steps = kUsbRefineSteps;
  budget.uap_max_passes = kUapPasses;
  budget.nc_steps = kNcSteps;
  return usb::make_detector(method, budget);
}

bool verdict_correct(const usb::DetectionReport& report, const Victim& victim) {
  const std::vector<std::int64_t>& flagged = report.verdict.flagged_classes;
  if (victim.target < 0) return flagged.empty();
  return flagged.size() == 1 && flagged.front() == victim.target;
}

ScanRecord service_scan(usb::DetectionService& service, usb::MethodKind method,
                        std::size_t index, const std::string& checkpoint,
                        const usb::ProbeKey& probe_key, SpanRecorder& recorder,
                        std::int64_t scan) {
  ScanRecord record;
  record.method = method;
  record.victim = index;
  std::atomic<std::int64_t> events{0};
  const ScopedSpan scan_span(recorder, "service.scan", -1, scan);
  const usb::Timer timer;
  try {
    usb::ScanRequest request;
    request.model_ref = usb::ModelRef::from_checkpoint(checkpoint);
    request.detector = make_bench_detector(method);
    request.probe_key = probe_key;
    request.options.progress = [&events](std::int64_t, usb::ClassScanEvent, double) {
      events.fetch_add(1, std::memory_order_relaxed);
    };
    usb::ScanHandle handle;
    {
      const ScopedSpan span(recorder, "service.submit", scan_span.index(), scan);
      handle = service.submit(std::move(request));
    }
    record.submit_ms = timer.milliseconds();
    if (recorder.enabled()) {
      // Admission wait, seen from outside: the handle leaves kQueued when
      // the service admits the scan to its round scheduler.
      const ScopedSpan span(recorder, "service.queue", scan_span.index(), scan);
      while (handle.poll() == usb::ScanStatus::kQueued) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      record.queue_wait_s = timer.seconds() - record.submit_ms * 1e-3;
    }
    const usb::ScanOutcome& outcome = handle.wait();
    record.ok = outcome.status == usb::ScanStatus::kDone;
    if (!record.ok) record.error = usb::to_string(outcome.status) + ": " + outcome.error;
    record.report = outcome.report;
  } catch (const std::exception& error) {
    record.error = error.what();
  }
  record.wall_s = timer.seconds();
  record.progress_events = events.load();
  return record;
}

Setup make_setup(const Options& options, SpanRecorder& recorder) {
  Setup setup;
  const ScopedSpan span(recorder, "setup", -1, 0);
  // One victim after the other. Trained side by side, one per pool worker,
  // setup was faster, but the RSS high-water mark at its end then depended
  // on how the two trainings overlapped (see README.md).
  setup.victims.push_back(train_victim(options, /*backdoored=*/true, recorder, span.index()));
  setup.victims.push_back(train_victim(options, /*backdoored=*/false, recorder, span.index()));
  if (is_service_workload(options)) {
    const ScopedSpan ckpt_span(recorder, "service.checkpoint", span.index(), 0);
    for (Victim& victim : setup.victims) {
      victim.checkpoint = options.work_dir + "/victim_" + victim.label + ".ckpt";
      usb::save_checkpoint(victim.network, victim.checkpoint);
    }
    setup.service = make_bench_service();
  }
  return setup;
}

ScanRecord run_scan(const Options& options, Setup& setup, usb::MethodKind method,
                    std::size_t index, SpanRecorder& recorder, std::int64_t scan) {
  Victim& victim = setup.victims[index];
  return is_service_workload(options)
             ? service_scan(*setup.service, method, index, victim.checkpoint, victim.probe_key,
                            recorder, scan)
             : direct_scan(method, index, victim, recorder, scan);
}

void run_cycle(const Options& options, Setup& setup, SpanRecorder& recorder,
               std::int64_t scan_base, std::vector<ScanRecord>& records) {
  // Victim by victim, USB then NC: two scans of one method always have a
  // scan of the other between them, so a host stall of a few seconds
  // reaches fewer samples of either median.
  std::int64_t scan = scan_base;
  for (std::size_t v = 0; v < setup.victims.size(); ++v) {
    for (const usb::MethodKind method : {usb::MethodKind::kUsb, usb::MethodKind::kNc}) {
      records.push_back(run_scan(options, setup, method, v, recorder, scan++));
    }
  }
}

}  // namespace perfbench
