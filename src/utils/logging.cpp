#include "utils/logging.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace usb {
namespace {

std::mutex g_io_mutex;

const char* level_tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

}  // namespace

namespace detail {

void log_line(LogLevel level, std::string_view message) {
  const auto now = std::chrono::system_clock::now();
  const auto since_epoch = std::chrono::duration_cast<std::chrono::milliseconds>(
                               now.time_since_epoch())
                               .count();
  const std::lock_guard<std::mutex> lock(g_io_mutex);
  std::fprintf(stderr, "[%s %lld.%03lld] %.*s\n", level_tag(level),
               static_cast<long long>(since_epoch / 1000),
               static_cast<long long>(since_epoch % 1000), static_cast<int>(message.size()),
               message.data());
}

}  // namespace detail
}  // namespace usb
