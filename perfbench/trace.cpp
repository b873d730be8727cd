#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double self_time(const std::vector<Span>& spans, std::int64_t index) {
  const Span& parent = spans[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans) {
    if (span.parent != index) continue;
    const double start = std::max(span.start, parent.start);
    const double end = std::min(span.end, parent.end);
    if (end > start) children.emplace_back(start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = parent.start;  // end of the union covered so far
  for (const auto& [start, end] : children) {
    if (end <= reach) continue;
    covered += end - std::max(start, reach);
    reach = end;
  }
  return (parent.end - parent.start) - covered;
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent, std::int64_t scan) {
  if (!enabled_) return -1;
  const double start = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, parent, scan});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t index) {
  if (index < 0) return;
  const double stop = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = stop;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %lld, \"scan\": %lld, \"self\": %.9f}%s\n",
                 i, span.name.c_str(), span.start, span.end, static_cast<long long>(span.parent),
                 static_cast<long long>(span.scan), self_time(all, static_cast<std::int64_t>(i)),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
