// Scan benchmark entry point (see perfbench/README.md).
//
//   perfbench --workload <direct_cifar10|service_triage> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one line per scan, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics. Exits non-zero when a check
// fails.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "stats.h"
#include "tensor/elementwise.h"
#include "utils/thread_pool.h"
#include "utils/timer.h"

namespace {

using perfbench::Metric;
using perfbench::Options;

// Half of the 4-core machine the benchmark was sized on. The service's two
// round dispatchers run its class items with their kernels inline, so a
// service scan also keeps two threads busy.
constexpr int kPoolThreads = 2;

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload ||
      (options.workload != "direct_cifar10" && options.workload != "service_triage")) {
    throw std::invalid_argument("--workload must be direct_cifar10 or service_triage");
  }
  return options;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Prints every scan with its report digest; returns the number failed.
std::int64_t print_scans(const std::vector<perfbench::ScanRecord>& records,
                         const perfbench::Setup& setup) {
  std::int64_t failed = 0;
  for (const perfbench::ScanRecord& record : records) {
    const perfbench::Victim& victim = setup.victims[record.victim];
    if (!record.ok) {
      ++failed;
      std::printf("scan %-3s %-6s FAILED %s\n", usb::to_string(record.method).c_str(),
                  victim.label.c_str(), record.error.c_str());
      continue;
    }
    std::string flagged;
    for (const std::int64_t t : record.report.verdict.flagged_classes) {
      if (!flagged.empty()) flagged += ',';
      flagged += std::to_string(t);
    }
    std::printf("scan %-3s %-6s target=%-2lld wall=%.3fs digest=%s flagged=[%s] verdict=%s\n",
                usb::to_string(record.method).c_str(), victim.label.c_str(),
                static_cast<long long>(victim.target), record.wall_s,
                perfbench::digest_hex(perfbench::report_digest(record.report)).c_str(),
                flagged.c_str(),
                perfbench::verdict_correct(record.report, victim) ? "correct" : "wrong");
  }
  return failed;
}

/// Every repeat of one (method, victim) scan must produce the same report.
bool repeats_identical(const std::vector<perfbench::ScanRecord>& records) {
  std::map<std::pair<int, std::size_t>, std::uint64_t> first;
  bool same = true;
  for (const perfbench::ScanRecord& record : records) {
    if (!record.ok) continue;
    const auto key = std::make_pair(static_cast<int>(record.method), record.victim);
    const std::uint64_t digest = perfbench::report_digest(record.report);
    const auto [it, inserted] = first.emplace(key, digest);
    if (!inserted && it->second != digest) same = false;
  }
  return same;
}

double method_median(const std::vector<perfbench::ScanRecord>& records, usb::MethodKind method,
                     std::int64_t& samples) {
  std::vector<double> walls;
  for (const perfbench::ScanRecord& record : records) {
    if (record.ok && record.method == method) walls.push_back(record.wall_s);
  }
  samples = static_cast<std::int64_t>(walls.size());
  return walls.empty() ? 0.0 : perfbench::median(walls);
}

int run(const Options& options, const usb::Timer& process_timer) {
  perfbench::SpanRecorder recorder(options.trace);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("pool_threads=%d nproc=%ld gemm=%s elementwise=%s\n",
              usb::ThreadPool::global().size(), sysconf(_SC_NPROCESSORS_ONLN),
              __builtin_cpu_supports("avx2") ? "avx2" : "portable",
              usb::ew::active_variant() == usb::ew::Variant::kAvx2 ? "avx2" : "portable");

  // ---- setup: process start to the first timed scan.
  perfbench::Setup setup = perfbench::make_setup(options, recorder);
  const double setup_s = process_timer.seconds();
  std::printf("setup %.3fs\n", setup_s);
  for (const perfbench::Victim& victim : setup.victims) {
    std::printf("victim %-6s target=%-2lld accuracy=%.3f asr=%.3f train=%.2fs\n",
                victim.label.c_str(), static_cast<long long>(victim.target), victim.accuracy,
                victim.asr, victim.train_s);
  }
  const double setup_rss_mb = perfbench::peak_rss_mb();

  // ---- measured phase: whole cycles until --seconds have passed, then the
  // BadNet victim's USB and NC scans once more, whose reports must repeat
  // the first ones bit for bit. With the benchmark's ten seconds that is one
  // cycle, and each scan-time median is over three scans.
  if (!perfbench::reset_peak_rss()) {
    std::printf("check failed: cannot reset the RSS high-water mark through "
                "/proc/self/clear_refs\n");
    return 1;
  }
  std::vector<perfbench::ScanRecord> records;
  const double cpu_before = perfbench::cpu_seconds();
  const usb::Timer measured;
  std::int64_t cycles = 0;
  do {
    perfbench::run_cycle(options, setup, recorder, 1 + static_cast<std::int64_t>(records.size()),
                         records);
    ++cycles;
  } while (!options.trace && measured.seconds() < options.seconds);
  if (!options.trace) {
    for (const usb::MethodKind method : {usb::MethodKind::kUsb, usb::MethodKind::kNc}) {
      records.push_back(perfbench::run_scan(options, setup, method, 0, recorder,
                                            1 + static_cast<std::int64_t>(records.size())));
    }
  }
  const double measured_s = measured.seconds();
  const double cpu_s = perfbench::cpu_seconds() - cpu_before;
  const double scan_rss_mb = perfbench::peak_rss_mb();

  const std::int64_t attempted = static_cast<std::int64_t>(records.size());
  const std::int64_t failed = print_scans(records, setup);
  bool correct = failed == 0;
  if (!repeats_identical(records)) {
    std::printf("check failed: repeats of one scan produced different reports\n");
    correct = false;
  }
  std::int64_t verdicts_correct = 0;
  for (const perfbench::ScanRecord& record : records) {
    if (record.ok && perfbench::verdict_correct(record.report, setup.victims[record.victim])) {
      ++verdicts_correct;
    }
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    std::int64_t usb_samples = 0;
    std::int64_t nc_samples = 0;
    const double usb_s = method_median(records, usb::MethodKind::kUsb, usb_samples);
    const double nc_s = method_median(records, usb::MethodKind::kNc, nc_samples);
    std::printf("measured %lld cycles in %.2fs: usb_scan_s median of %lld, nc_scan_s median of "
                "%lld\n",
                static_cast<long long>(cycles), measured_s, static_cast<long long>(usb_samples),
                static_cast<long long>(nc_samples));
    metrics = {
        {"setup_s", setup_s, "s"},
        {"setup_peak_rss_mb", setup_rss_mb, "MB"},
        {"usb_scan_s", usb_s, "s"},
        {"nc_scan_s", nc_s, "s"},
        {"cpu_s_per_scan", cpu_s / static_cast<double>(std::max<std::int64_t>(1, attempted)), "s"},
        {"scan_peak_rss_mb", scan_rss_mb, "MB"},
    };
  } else {
    std::string failure;
    if (!perfbench::run_layer_replays(options, setup, records, recorder, metrics, failure)) {
      std::printf("check failed: %s\n", failure.c_str());
      correct = false;
    }
    const std::string path = options.work_dir + "/trace_" + options.workload + "_" +
                             std::to_string(options.seed) + ".json";
    if (recorder.write_json(path)) std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("verdicts correct: %lld of %lld scans\n", static_cast<long long>(verdicts_correct),
              static_cast<long long>(attempted));
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const usb::Timer process_timer;
  // Pin the scan pool before anything touches ThreadPool::global(): victims
  // depend on the width (conv2d_backward splits its dW reduction per worker).
  ::setenv("USB_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  try {
    return run(parse_options(argc, argv), process_timer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
