// Span recorder for the benchmark's traced invocation.
//
// The harness wraps its calls into each library module in spans: name,
// start, end, the span that caused it, and the scan it belongs to. Spans
// live in memory and are written out when the benchmark ends. A disabled
// recorder (the timed invocation) records nothing and costs one branch per
// span.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
  std::int64_t parent = -1;  // index of the causing span; -1 for roots
  std::int64_t scan = 0;     // spans of one scan share this id
};

/// Self time of span `index`: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (parallel workers)
/// count once; child time outside the parent's interval is ignored.
[[nodiscard]] double self_time(const std::vector<Span>& spans, std::int64_t index);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled). Thread-safe.
  std::int64_t begin(std::string name, std::int64_t parent, std::int64_t scan);
  /// Closes a span opened by begin(); -1 is ignored. Thread-safe.
  void end(std::int64_t index);

  /// A copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans as one JSON array; returns false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::int64_t parent, std::int64_t scan)
      : recorder_(recorder), index_(recorder.begin(std::move(name), parent, scan)) {}
  ~ScopedSpan() { recorder_.end(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

}  // namespace perfbench
