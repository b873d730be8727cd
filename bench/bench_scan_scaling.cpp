// Multi-class scan scaling: wall clock of a full K-class detect() as a
// function of scan-pool size, plus a single-thread matrix that isolates the
// speedup of early-exit scheduling, with bit-identity checks throughout.
//
// Section "threads" is the scan engine's contract made measurable:
// per-class reverse engineering fans out over the pool, so a K-class scan
// should approach a num_threads-fold speedup while producing the same
// DetectionReport bit for bit.
//
// Section "matrix" runs the K=10 synthetic USB detect() at one thread with
// early exit off and on, and reports each run's speedup over the off run.
// Contract check: the early-exit run must reach the same verdict.
//
// Section "service" is the DetectionService's cross-request fair-share
// contract made measurable: a small K=4 scan is submitted while a K=43 scan
// occupies the service's single round dispatcher, and the entry records the
// small scan's p50 submit-to-done latency plus two contract booleans —
// small_before_large (the small scan finished while the large one was still
// running, i.e. the global scheduler interleaved the two jobs' rounds
// instead of draining the large scan first) and identical (both reports are
// bit-identical to a direct detect()). check_regression.py hard-requires
// this entry.
//
// Usage:
//   bench_scan_scaling [OUT.json]
// Emits BENCH_scan_scaling.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "core/usb.h"
#include "fig_common.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/checkpoint.h"
#include "nn/models.h"
#include "service/detection_service.h"
#include "service/worker_fleet.h"
#include "utils/thread_pool.h"
#include "utils/timer.h"

namespace {

using namespace usb;

// The scan_server worker binary for the fleet sub-benchmark: env override
// first (ctest / CI), else next to this binary in the build tree.
std::string scan_server_path(const char* argv0) {
  if (const char* env = std::getenv("USB_SCAN_SERVER")) return env;
  const std::string self(argv0);
  const std::size_t slash = self.find_last_of('/');
  return (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
         "/scan_server";
}

bool reports_identical(const DetectionReport& a, const DetectionReport& b) {
  if (a.per_class.size() != b.per_class.size()) return false;
  for (std::size_t t = 0; t < a.per_class.size(); ++t) {
    const TriggerEstimate& x = a.per_class[t];
    const TriggerEstimate& y = b.per_class[t];
    if (x.target_class != y.target_class || x.mask_l1 != y.mask_l1 ||
        x.final_loss != y.final_loss || x.fooling_rate != y.fooling_rate ||
        !x.pattern.equals(y.pattern) || !x.mask.equals(y.mask)) {
      return false;
    }
  }
  return a.verdict.backdoored == b.verdict.backdoored &&
         a.verdict.flagged_classes == b.verdict.flagged_classes &&
         a.verdict.norms == b.verdict.norms;
}

struct ScalingRow {
  std::string method;
  int threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

struct MatrixRow {
  bool early_exit = false;
  double seconds = 0.0;
  double speedup = 1.0;  // vs the early-exit-off baseline
  bool same_verdict = true;
};

/// The K=10 matrix workload: refinement-heavy enough that early exit has
/// rounds to reclaim, with a real Alg. 1 crafting stage behind them.
UsbConfig matrix_usb_config() {
  UsbConfig config;
  config.uap.max_passes = 1;
  config.uap.craft_size = 32;         // one craft batch: the v = 0 warm start covers it
  config.uap.deepfool.max_iterations = 2;  // warm start then covers half of Alg. 1
  config.refine_steps = 96;           // refinement-dominated, the regime early exit attacks
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  // The strict-parsing rule this bench introduced in PR 3 now lives in
  // figbench::BenchArgs, shared by every fig/table bench.
  figbench::BenchArgs args(argc, argv);
  const std::string json_path = args.take_positional().value_or("BENCH_scan_scaling.json");
  args.finish();

  // K = 10 candidate classes on a CIFAR-like synthetic probe.
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  const Dataset probe = generate_dataset(spec, 128, 301);
  Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                               spec.num_classes, 302);

  UsbConfig usb_config;
  usb_config.uap.max_passes = 1;
  usb_config.uap.craft_size = 64;
  usb_config.refine_steps = 12;

  ReverseOptConfig nc_config;
  nc_config.steps = 30;

  std::vector<ScalingRow> rows;
  std::printf("%-6s %8s %12s %10s %10s\n", "method", "threads", "seconds", "speedup",
              "identical");
  for (const std::string& method : {std::string("USB"), std::string("NC")}) {
    DetectionReport baseline;
    double baseline_seconds = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      Timer timer;
      DetectionReport report;
      if (method == "USB") {
        report = UsbDetector(usb_config).detect(model, probe, pool);
      } else {
        report = NeuralCleanse(nc_config).detect(model, probe, pool);
      }
      ScalingRow row;
      row.method = method;
      row.threads = threads;
      row.seconds = timer.seconds();
      if (threads == 1) {
        baseline = report;
        baseline_seconds = row.seconds;
      } else {
        row.speedup = baseline_seconds / row.seconds;
        row.identical = reports_identical(baseline, report);
      }
      std::printf("%-6s %8d %12.3f %9.2fx %10s\n", row.method.c_str(), row.threads,
                  row.seconds, row.speedup, row.identical ? "yes" : "NO");
      rows.push_back(row);
    }
  }

  // ---- Early-exit matrix: one thread, early exit off and on. ----
  std::printf("\n%-6s %11s %12s %10s %13s\n", "method", "early-exit", "seconds", "speedup",
              "same-verdict");
  ThreadPool single(1);
  // Two timed repetitions per cell, keeping the min: the matrix gates CI, and
  // single-run wall clocks on a shared 1-core runner swing by 10-20%.
  constexpr int kMatrixReps = 2;
  const auto run_matrix_cell = [&](bool early_on, double& seconds) {
    UsbConfig config = matrix_usb_config();
    config.early_exit.enabled = early_on;
    if (early_on) {
      config.early_exit.round_steps = 4;
      config.early_exit.min_rounds = 1;
      config.early_exit.margin = 0.25;
    }
    DetectionReport report;
    seconds = 0.0;
    for (int rep = 0; rep < kMatrixReps; ++rep) {
      Timer timer;
      report = UsbDetector(config).detect(model, probe, single);
      const double elapsed = timer.seconds();
      if (rep == 0 || elapsed < seconds) seconds = elapsed;
    }
    return report;
  };
  MatrixRow off;
  const DetectionReport matrix_baseline = run_matrix_cell(/*early_on=*/false, off.seconds);
  // Early exit promises only the verdict (it trades refinement budget for
  // time), so its row carries no identity claim.
  MatrixRow on;
  on.early_exit = true;
  const DetectionReport early_report = run_matrix_cell(/*early_on=*/true, on.seconds);
  on.speedup = off.seconds / on.seconds;
  on.same_verdict = early_report.verdict.backdoored == matrix_baseline.verdict.backdoored &&
                    early_report.verdict.flagged_classes ==
                        matrix_baseline.verdict.flagged_classes;
  const std::vector<MatrixRow> matrix = {off, on};
  for (const MatrixRow& row : matrix) {
    std::printf("%-6s %11s %12.3f %9.2fx %13s\n", "USB", row.early_exit ? "on" : "off",
                row.seconds, row.speedup, row.same_verdict ? "yes" : "NO");
  }

  // ---- Mixed-request fairness: the service's global class-job scheduler. ----
  // One round dispatcher, two admitted scans: without fair-share the K=43
  // scan would drain all its rounds before the K=4 scan's first, and the
  // small scan's latency would be the large scan's full wall clock.
  struct ServiceRow {
    double seconds = 0.0;  // p50 small-scan submit-to-done latency
    bool small_before_large = true;
    bool identical = true;
    // p50 solo-scan latency with an armed-but-never-hit deadline, relative
    // to the identical scan with no deadline, minus 1.0. The deadline seam
    // is a handful of steady_clock reads per stage boundary; the gate holds
    // this below 2%.
    double deadline_overhead = 0.0;
    // ModelStore sharing of by-reference submission: hits/(hits+misses)
    // after N same-ref submits ((N-1)/N when sharing works).
    double model_store_hit_rate = 0.0;
    // Crash resilience of the process-sharded fleet: fraction of
    // kill-a-worker-mid-scan reps whose scan still resolved kDone with a
    // report identical to direct detect() (hard 1.0 — re-dispatch must be
    // lossless), and the p50 seconds from SIGKILL to the slot's respawn
    // being live again (death detection + backoff + fork/exec).
    double fleet_redispatch_success_rate = 0.0;
    double fleet_respawn_p50 = 0.0;
  };
  ServiceRow service_row;
  // ---- Overload resilience: shedding and health-snapshot cost. ---------
  struct OverloadRow {
    double seconds = 0.0;              // p50 unmonitored solo-scan latency
    double shed_p50_latency = 0.0;     // p50 submit-to-kShed resolution latency
    double health_overhead = 0.0;      // solo best with a health() poller, minus 1
  };
  OverloadRow overload_row;
  {
    DatasetSpec large_spec;
    large_spec.name = "bench-scan-service-large";
    large_spec.channels = 1;
    large_spec.image_size = 16;
    large_spec.num_classes = 43;
    DatasetSpec small_spec = large_spec;
    small_spec.name = "bench-scan-service-small";
    small_spec.num_classes = 4;
    const ProbeKey large_key{large_spec, 32, 611};
    const ProbeKey small_key{small_spec, 32, 612};
    const Dataset large_probe = generate_dataset(large_spec, 32, 611);
    const Dataset small_probe = generate_dataset(small_spec, 32, 612);
    // Every submit below shares these two instances, which the direct
    // detect() calls leave frozen.
    const auto large_victim =
        std::make_shared<Network>(make_network(Architecture::kBasicCnn, 1, 16, 43, 613));
    const auto small_victim =
        std::make_shared<Network>(make_network(Architecture::kBasicCnn, 1, 16, 4, 614));

    ReverseOptConfig service_nc;
    service_nc.steps = 6;
    const DetectionReport direct_large =
        NeuralCleanse(service_nc).detect(*large_victim, large_probe);
    const DetectionReport direct_small =
        NeuralCleanse(service_nc).detect(*small_victim, small_probe);

    DetectionServiceConfig service_config;
    service_config.scan_threads = 1;
    service_config.max_concurrent_scans = 2;
    service_config.round_dispatchers = 1;  // one crew both scans must share
    DetectionService service(service_config);

    constexpr int kServiceReps = 5;
    std::vector<double> latencies;
    latencies.reserve(kServiceReps);
    for (int rep = 0; rep < kServiceReps; ++rep) {
      ScanRequest large_request;
      large_request.model = large_victim;
      large_request.detector = std::make_unique<NeuralCleanse>(service_nc);
      large_request.probe_key = large_key;
      const ScanHandle large_handle = service.submit(std::move(large_request));

      Timer latency;
      ScanRequest small_request;
      small_request.model = small_victim;
      small_request.detector = std::make_unique<NeuralCleanse>(service_nc);
      small_request.probe_key = small_key;
      const ScanHandle small_handle = service.submit(std::move(small_request));
      const ScanOutcome& small_outcome = small_handle.wait();
      latencies.push_back(latency.seconds());

      // ~10x the small scan's work remains: the large scan can only have
      // finished by monopolizing the dispatcher and starving the small one.
      if (large_handle.poll() != ScanStatus::kRunning) {
        service_row.small_before_large = false;
      }
      const ScanOutcome& large_outcome = large_handle.wait();
      if (small_outcome.status != ScanStatus::kDone ||
          large_outcome.status != ScanStatus::kDone ||
          !reports_identical(direct_small, small_outcome.report) ||
          !reports_identical(direct_large, large_outcome.report)) {
        service_row.identical = false;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    service_row.seconds = latencies[latencies.size() / 2];

    // ---- Deadline bookkeeping overhead. ---------------------------------
    // Same small scan, solo on the service, with and without a 1-hour
    // deadline the scan never approaches. Reps interleave the two variants
    // (so frequency/cache drift hits both alike) and each rep times a pair
    // of back-to-back scans to lift the sample above scheduler noise.
    constexpr int kDeadlineReps = 9;
    constexpr int kScansPerRep = 2;
    std::vector<double> without_deadline;
    std::vector<double> with_deadline;
    auto run_small = [&](double deadline_seconds) {
      const Timer timer;
      for (int scan = 0; scan < kScansPerRep; ++scan) {
        ScanRequest request;
        request.model = small_victim;
        request.detector = std::make_unique<NeuralCleanse>(service_nc);
        request.probe_key = small_key;
        request.options.deadline_seconds = deadline_seconds;
        const ScanOutcome outcome = service.submit(std::move(request)).wait();
        if (outcome.status != ScanStatus::kDone ||
            !reports_identical(direct_small, outcome.report)) {
          service_row.identical = false;
        }
      }
      return timer.seconds();
    };
    for (int rep = 0; rep < kDeadlineReps; ++rep) {
      without_deadline.push_back(run_small(0.0));
      with_deadline.push_back(run_small(3600.0));
    }
    // Min-of-reps on both sides: the deadline seam costs well under 1%, and
    // on a shared 1-core runner the p50 of millisecond-scale pairs still
    // carries one-sided scheduler spikes several times that size — the
    // least-disturbed run of each variant is the honest comparison.
    const double base_best =
        *std::min_element(without_deadline.begin(), without_deadline.end());
    const double deadline_best =
        *std::min_element(with_deadline.begin(), with_deadline.end());
    service_row.deadline_overhead = base_best > 0 ? deadline_best / base_best - 1.0 : 0.0;

    // ---- ModelStore sharing: by-reference submission. --------------------
    // The small victim is checkpointed once and submitted kRefSubmits times
    // BY REFERENCE through the same service. The store loads the file once
    // (one miss) and every later submit shares the resident instance, so
    // the hit rate is (N-1)/N. The ref reports must still be byte-identical
    // to detect() — folded into `identical`.
    {
      const std::string ckpt_path = "/tmp/bench_scan_scaling_small.ckpt";
      save_checkpoint(*small_victim, ckpt_path);
      constexpr int kRefSubmits = 4;
      std::vector<ScanHandle> ref_handles;
      ref_handles.reserve(kRefSubmits);
      for (int i = 0; i < kRefSubmits; ++i) {
        ScanRequest request;
        request.model_ref = ModelRef::from_checkpoint(ckpt_path);
        request.detector = std::make_unique<NeuralCleanse>(service_nc);
        request.probe_key = small_key;
        ref_handles.push_back(service.submit(std::move(request)));
      }
      for (const ScanHandle& handle : ref_handles) {
        const ScanOutcome& outcome = handle.wait();
        if (outcome.status != ScanStatus::kDone ||
            !reports_identical(direct_small, outcome.report)) {
          service_row.identical = false;
        }
      }
      const ModelStore& store = service.model_store();
      const double lookups = static_cast<double>(store.hits() + store.misses());
      service_row.model_store_hit_rate =
          lookups > 0 ? static_cast<double>(store.hits()) / lookups : 0.0;
      std::remove(ckpt_path.c_str());
    }

    // ---- Shed resolution latency. ---------------------------------------
    // A dedicated single-slot service past its depth watermark: every rep's
    // submit breaches the watermark and sheds ITSELF synchronously, so the
    // submit-to-kShed latency is the full cost of rejecting work under
    // overload (watermark check + resolution) — the number an overloaded
    // caller actually waits.
    {
      DetectionServiceConfig shed_config;
      shed_config.scan_threads = 1;
      shed_config.max_concurrent_scans = 1;
      shed_config.shed_queue_depth = 1;
      DetectionService shed_service(shed_config);
      std::promise<void> release;
      const std::shared_future<void> gate(release.get_future());
      auto small_request = [&](bool gated) {
        ScanRequest request;
        request.model = small_victim;
        request.detector = std::make_unique<NeuralCleanse>(service_nc);
        request.probe_key = small_key;
        if (gated) {
          request.options.progress = [gate](std::int64_t, ClassScanEvent event, double) {
            if (event == ClassScanEvent::kFinalized) gate.wait();
          };
        }
        return request;
      };
      // Occupy the executor (gated at its first finalize) and the one
      // tolerated queue slot; every further submit is over the watermark.
      const ScanHandle blocker = shed_service.submit(small_request(/*gated=*/true));
      const ScanHandle filler = shed_service.submit(small_request(/*gated=*/false));
      constexpr int kShedReps = 9;
      std::vector<double> shed_latencies;
      shed_latencies.reserve(kShedReps);
      for (int rep = 0; rep < kShedReps; ++rep) {
        const Timer timer;
        const ScanHandle shed = shed_service.submit(small_request(/*gated=*/false));
        const double elapsed = timer.seconds();
        if (shed.poll() == ScanStatus::kShed) {
          shed_latencies.push_back(elapsed);
        }
      }
      release.set_value();
      if (shed_latencies.empty()) {
        service_row.identical = false;  // shedding never happened: contract broken
      } else {
        std::sort(shed_latencies.begin(), shed_latencies.end());
        overload_row.shed_p50_latency = shed_latencies[shed_latencies.size() / 2];
      }
      (void)blocker.wait();
      (void)filler.wait();
    }

    // ---- Health snapshot overhead. --------------------------------------
    // Solo-scan pairs with a monitoring thread polling health() at 100 Hz
    // (a realistic monitoring cadence; on a 1-core runner a tighter loop
    // measures context-switch preemption, not snapshot cost), interleaved
    // with unmonitored pairs so machine drift hits both alike. health() is
    // two mutex grabs plus a few atomic loads; the gate holds its
    // effect on scan latency below 2%. Min-of-reps on both sides: the p50
    // of millisecond-scale pairs on a shared 1-core runner still carries
    // one-sided scheduler spikes that would swamp a sub-1% effect. The
    // unmonitored pairs also give the row's `seconds`: their p50 per scan.
    constexpr int kHealthReps = 9;
    std::vector<double> unmonitored;
    std::vector<double> monitored;
    for (int rep = 0; rep < kHealthReps; ++rep) {
      unmonitored.push_back(run_small(0.0));
      std::atomic<bool> stop_poller{false};
      std::thread poller([&] {
        while (!stop_poller.load(std::memory_order_relaxed)) {
          (void)service.health();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
      monitored.push_back(run_small(0.0));
      stop_poller.store(true, std::memory_order_relaxed);
      poller.join();
    }
    const double unmonitored_best = *std::min_element(unmonitored.begin(), unmonitored.end());
    const double monitored_best = *std::min_element(monitored.begin(), monitored.end());
    overload_row.health_overhead =
        unmonitored_best > 0 ? monitored_best / unmonitored_best - 1.0 : 0.0;
    std::sort(unmonitored.begin(), unmonitored.end());
    overload_row.seconds = unmonitored[unmonitored.size() / 2] / kScansPerRep;

    // ---- Fleet crash re-dispatch. ---------------------------------------
    // A 2-worker process fleet scanning the small victim; each rep SIGKILLs
    // the worker holding the in-flight scan and times SIGKILL-to-respawn
    // (death detection + backoff + fork/exec). The killed scan must still
    // resolve kDone on the survivor with a report byte-identical to direct
    // detect() — re-dispatch is only safe because reports are deterministic,
    // so the success rate is a hard 1.0 in check_regression.py. The rate is
    // zeroed outright if no kill ever landed mid-scan (re-dispatch never
    // exercised) or any request got quarantined.
    {
      const std::string worker = scan_server_path(argv[0]);
      if (access(worker.c_str(), X_OK) != 0) {
        std::fprintf(stderr,
                     "bench_scan_scaling: worker binary %s missing; fleet metrics zeroed\n",
                     worker.c_str());
      } else {
        const std::string fleet_ckpt = "/tmp/bench_scan_scaling_fleet.ckpt";
        save_checkpoint(*small_victim, fleet_ckpt);
        FleetConfig fleet_config;
        // --steps 6 matches service_nc: the worker's NC config must equal
        // the direct baseline's for byte-identity to be a fair check.
        fleet_config.worker_argv = {worker, "--steps", "6"};
        fleet_config.num_workers = 2;
        fleet_config.max_in_flight_per_worker = 2;
        fleet_config.heartbeat_interval_seconds = 0.05;
        fleet_config.respawn_backoff_initial_seconds = 0.02;
        WorkerFleet fleet(fleet_config);
        constexpr int kFleetReps = 5;
        int fleet_successes = 0;
        std::vector<double> respawn_latencies;
        respawn_latencies.reserve(kFleetReps);
        for (int rep = 0; rep < kFleetReps; ++rep) {
          wire::WireScanRequest request;
          request.model_ref = ModelRef::from_checkpoint(fleet_ckpt);
          request.probe_key = small_key;
          request.method = "NC";
          FleetHandle handle = fleet.submit(std::move(request));

          // Find the worker carrying the scan and SIGKILL it mid-flight.
          pid_t victim = -1;
          const auto hunt_deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (victim < 0 && std::chrono::steady_clock::now() < hunt_deadline) {
            for (const WorkerHealth& w : fleet.health().workers) {
              if (w.alive && w.in_flight > 0) victim = w.pid;
            }
            if (victim < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (victim > 0) {
            const std::int64_t respawns_before = fleet.health().respawns_total;
            const Timer respawn_timer;
            kill(victim, SIGKILL);
            const auto respawn_deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (fleet.health().respawns_total <= respawns_before &&
                   std::chrono::steady_clock::now() < respawn_deadline) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            if (fleet.health().respawns_total > respawns_before) {
              respawn_latencies.push_back(respawn_timer.seconds());
            }
          }
          const FleetOutcome& outcome = handle.wait();
          if (outcome.status == ScanStatus::kDone &&
              reports_identical(direct_small, outcome.report)) {
            ++fleet_successes;
          }
        }
        const FleetHealth final_health = fleet.health();
        service_row.fleet_redispatch_success_rate =
            (final_health.redispatches_total > 0 && final_health.requests_quarantined == 0)
                ? static_cast<double>(fleet_successes) / static_cast<double>(kFleetReps)
                : 0.0;
        if (!respawn_latencies.empty()) {
          std::sort(respawn_latencies.begin(), respawn_latencies.end());
          service_row.fleet_respawn_p50 = respawn_latencies[respawn_latencies.size() / 2];
        }
        fleet.shutdown();
        std::remove(fleet_ckpt.c_str());
      }
    }
  }
  std::printf("\n%-6s %13s %20s %10s %18s %14s\n", "method", "small-p50-s",
              "small-before-large", "identical", "deadline-overhead", "store-hit-rate");
  std::printf("%-6s %13.3f %20s %10s %17.1f%% %14.2f\n", "NC", service_row.seconds,
              service_row.small_before_large ? "yes" : "NO",
              service_row.identical ? "yes" : "NO", service_row.deadline_overhead * 100.0,
              service_row.model_store_hit_rate);
  std::printf("\n%-6s %13s %14s %17s\n", "method", "solo-p50-s", "shed-p50-ms",
              "health-overhead");
  std::printf("%-6s %13.3f %14.3f %16.1f%%\n", "NC", overload_row.seconds,
              overload_row.shed_p50_latency * 1e3, overload_row.health_overhead * 100.0);
  std::printf("\n%-6s %24s %18s\n", "method", "fleet-redispatch-rate", "respawn-p50-ms");
  std::printf("%-6s %24.2f %18.1f\n", "NC", service_row.fleet_redispatch_success_rate,
              service_row.fleet_respawn_p50 * 1e3);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_scan_scaling: cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  {
    out << "[\n";
    char line[768];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::snprintf(line, sizeof(line),
                    "  {\"section\": \"threads\", \"method\": \"%s\", \"threads\": %d, "
                    "\"seconds\": %.4f, \"speedup\": %.3f, \"identical\": %s},\n",
                    rows[i].method.c_str(), rows[i].threads, rows[i].seconds, rows[i].speedup,
                    rows[i].identical ? "true" : "false");
      out << line;
    }
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      std::snprintf(line, sizeof(line),
                    "  {\"section\": \"matrix\", \"method\": \"USB\", \"threads\": 1, "
                    "\"early_exit\": \"%s\", \"seconds\": %.4f, \"speedup\": %.3f, "
                    "\"same_verdict\": %s},\n",
                    matrix[i].early_exit ? "on" : "off", matrix[i].seconds, matrix[i].speedup,
                    matrix[i].same_verdict ? "true" : "false");
      out << line;
    }
    std::snprintf(line, sizeof(line),
                  "  {\"section\": \"service\", \"method\": \"NC\", \"threads\": 1, "
                  "\"scenario\": \"mixed\", \"seconds\": %.4f, "
                  "\"small_before_large\": %s, \"identical\": %s, "
                  "\"deadline_miss_p50_overhead\": %.4f, "
                  "\"model_store_hit_rate\": %.4f, "
                  "\"fleet_redispatch_success_rate\": %.3f, "
                  "\"fleet_respawn_p50_seconds\": %.4f},\n",
                  service_row.seconds, service_row.small_before_large ? "true" : "false",
                  service_row.identical ? "true" : "false", service_row.deadline_overhead,
                  service_row.model_store_hit_rate, service_row.fleet_redispatch_success_rate,
                  service_row.fleet_respawn_p50);
    out << line;
    // Nanosecond precision for the shed latency: a shed submit copies
    // nothing and resolves in about a microsecond, which %.6f could round
    // to the zero the gate reads as "never fired".
    std::snprintf(line, sizeof(line),
                  "  {\"section\": \"overload\", \"method\": \"NC\", \"threads\": 1, "
                  "\"scenario\": \"overload\", \"seconds\": %.4f, "
                  "\"shed_p50_latency_seconds\": %.9f, \"health_snapshot_overhead\": %.4f}\n",
                  overload_row.seconds, overload_row.shed_p50_latency,
                  overload_row.health_overhead);
    out << line;
    out << "]\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  for (const ScalingRow& row : rows) {
    if (!row.identical) return 1;  // determinism is part of the contract
  }
  for (const MatrixRow& row : matrix) {
    if (!row.same_verdict) return 1;
  }
  if (!service_row.small_before_large || !service_row.identical) return 1;
  // By-ref submission contract: the store must actually have shared (a
  // zero hit rate means every submit reloaded).
  if (service_row.model_store_hit_rate <= 0.0) return 1;
  // Overload contract: the shed path must actually have shed (a zero p50
  // means it never fired).
  if (overload_row.shed_p50_latency <= 0.0) return 1;
  // Fleet contract: every killed-worker scan must re-dispatch to a
  // byte-identical kDone, and a respawn must actually have been timed (a
  // zero p50 means no kill ever landed or the worker binary was missing).
  if (service_row.fleet_redispatch_success_rate != 1.0 || service_row.fleet_respawn_p50 <= 0.0) {
    return 1;
  }
  return 0;
}
