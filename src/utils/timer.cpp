#include "utils/timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace usb {

std::chrono::steady_clock::duration steady_span(double seconds) noexcept {
  if (!(seconds > 0.0)) return std::chrono::steady_clock::duration::zero();
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::min(seconds, kMaxSpanSeconds)));
}

std::string format_minutes_seconds(double seconds) {
  if (seconds < 0) seconds = 0;
  const auto total = static_cast<std::int64_t>(std::llround(seconds));
  const std::int64_t minutes = total / 60;
  const std::int64_t secs = total % 60;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld:%02lld", static_cast<long long>(minutes),
                static_cast<long long>(secs));
  return buffer;
}

}  // namespace usb
