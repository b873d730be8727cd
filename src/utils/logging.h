// Minimal leveled logger.
//
// Experiments print paper-style tables to stdout; diagnostic logging goes to
// stderr through this logger so table output stays machine-parsable.
// Statements below kLogLevel (Info) are dropped.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace usb {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// The fixed process log level.
inline constexpr LogLevel kLogLevel = LogLevel::kInfo;

namespace detail {
void log_line(LogLevel level, std::string_view message);
}

/// Stream-style log statement: `USB_LOG(Info) << "acc=" << acc;`
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (level_ >= kLogLevel) detail::log_line(level_, stream_.str());
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (level_ >= kLogLevel) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace usb

#define USB_LOG(severity) ::usb::LogStream(::usb::LogLevel::k##severity)
