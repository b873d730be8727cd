// Arithmetic and process probes shared by the scan benchmark and its tests:
// medians, report digests and bitwise report comparison, and the /proc and
// getrusage readers behind the memory and CPU metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "defenses/detector.h"

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count). Throws
/// std::invalid_argument on an empty input: every metric has a sample.
[[nodiscard]] double median(std::vector<double> values);

/// FNV-1a over raw bytes, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) noexcept;

/// The FNV-1a offset basis (the digest of nothing).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Digest of a report's verdict inputs and outputs: the bit pattern of every
/// class's mask-L1 statistic, in class order, then the flagged classes in
/// the order the verdict lists them. Two reports with equal digests agree
/// on every statistic the MAD rule saw and on its outcome.
[[nodiscard]] std::uint64_t report_digest(const usb::DetectionReport& report);

/// `report_digest` as 16 lowercase hex digits.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

/// True when two reports agree bit for bit on everything but timings: every
/// class's state, mask, pattern, mask-L1, loss and fooling rate, and the
/// verdict's flags, norms and anomaly indices.
[[nodiscard]] bool reports_identical(const usb::DetectionReport& a,
                                     const usb::DetectionReport& b);

/// Process CPU time (user + system) in seconds, from getrusage.
[[nodiscard]] double cpu_seconds();

/// The RSS high-water mark (VmHWM) in MiB; 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap to the kernel, then resets the RSS high-water mark to
/// the current RSS by writing "5" to /proc/self/clear_refs. Returns false
/// when the kernel refuses.
[[nodiscard]] bool reset_peak_rss();

}  // namespace perfbench
