// Wall-clock timing utilities used by the Table 7 time-consumption bench and
// the experiment harness, and the seconds-to-steady_clock clamp the scan
// service times its deadlines and waits with.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace usb {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Longest span that a caller's seconds value may add to
/// steady_clock::now(): about 31 years, past any scan and far inside what
/// steady_clock's 64-bit nanosecond count can hold.
inline constexpr double kMaxSpanSeconds = 1e9;

/// `seconds` as a steady_clock span, clamped to [0, kMaxSpanSeconds] (NaN
/// reads as 0), so now() plus the result never overflows. The service's
/// deadlines and timed waits, both set by callers, go through here.
[[nodiscard]] std::chrono::steady_clock::duration steady_span(double seconds) noexcept;

/// Formats seconds as the paper's Table 7 "[m:s]" layout, e.g. 267.12s ->
/// "4:27".
[[nodiscard]] std::string format_minutes_seconds(double seconds);

}  // namespace usb
