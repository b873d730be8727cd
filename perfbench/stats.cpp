#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

bool same_bits(double a, double b) noexcept { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_tensor(const usb::Tensor& a, const usb::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0);
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t report_digest(const usb::DetectionReport& report) {
  std::uint64_t hash = kFnvOffset;
  for (const usb::TriggerEstimate& estimate : report.per_class) {
    hash = fnv1a(hash, &estimate.mask_l1, sizeof estimate.mask_l1);
  }
  for (const std::int64_t flagged : report.verdict.flagged_classes) {
    hash = fnv1a(hash, &flagged, sizeof flagged);
  }
  return hash;
}

std::string digest_hex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(digest));
  return buffer;
}

bool reports_identical(const usb::DetectionReport& a, const usb::DetectionReport& b) {
  if (a.method != b.method || a.per_class.size() != b.per_class.size() ||
      a.per_class_state != b.per_class_state ||
      a.verdict.backdoored != b.verdict.backdoored ||
      a.verdict.flagged_classes != b.verdict.flagged_classes ||
      !same_doubles(a.verdict.norms, b.verdict.norms) ||
      !same_doubles(a.verdict.anomaly, b.verdict.anomaly)) {
    return false;
  }
  for (std::size_t t = 0; t < a.per_class.size(); ++t) {
    const usb::TriggerEstimate& x = a.per_class[t];
    const usb::TriggerEstimate& y = b.per_class[t];
    if (x.target_class != y.target_class || !same_bits(x.mask_l1, y.mask_l1) ||
        !same_bits(x.final_loss, y.final_loss) || !same_bits(x.fooling_rate, y.fooling_rate) ||
        !same_tensor(x.pattern, y.pattern) || !same_tensor(x.mask, y.mask)) {
      return false;
    }
  }
  return true;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  // Return freed heap to the kernel first, so the new mark starts from live
  // memory rather than from what setup left in malloc's free lists.
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace perfbench
