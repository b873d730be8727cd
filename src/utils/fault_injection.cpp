#include "utils/fault_injection.h"

#include <chrono>
#include <thread>

namespace usb::fault {
namespace {

// The scope tag is thread-local (not part of the registry) so tagging is
// free and race-free: a dispatcher tags itself for the duration of one
// stage and every hook the stage reaches — however deep — sees the tag.
thread_local std::uint64_t current_scope = 0;

}  // namespace

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::arm(const std::string& point, FaultSpec spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  PointState& state = points_[point];
  state.spec = std::move(spec);
  state.hits = 0;
  armed_points_.store(static_cast<std::int64_t>(points_.size()), std::memory_order_relaxed);
}

void FaultRegistry::disarm(const std::string& point) {
  const std::lock_guard<std::mutex> lock(mutex_);
  points_.erase(point);
  armed_points_.store(static_cast<std::int64_t>(points_.size()), std::memory_order_relaxed);
}

void FaultRegistry::disarm_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
}

std::int64_t FaultRegistry::hits(const std::string& point) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

bool FaultRegistry::triggered(const char* point, FaultSpec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(point);
  if (it == points_.end()) return false;
  PointState& state = it->second;
  if (state.spec.scope != 0 && state.spec.scope != current_scope) return false;
  const std::int64_t hit = state.hits++;
  if (hit < state.spec.after_hits) return false;
  if (state.spec.count >= 0 && hit >= state.spec.after_hits + state.spec.count) return false;
  spec = state.spec;
  return true;
}

void FaultRegistry::on_point(const char* point) {
  if (armed_points_.load(std::memory_order_relaxed) == 0) return;
  FaultSpec spec;
  if (!triggered(point, spec)) return;
  switch (spec.kind) {
    case FaultSpec::Kind::kThrow:
      throw InjectedFault(spec.message.empty() ? "injected fault at " + std::string(point)
                                               : spec.message);
    case FaultSpec::Kind::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double>(spec.delay_seconds));
      return;
    case FaultSpec::Kind::kNan:
      return;  // value poisoning only takes effect at USB_FAULT_NAN sites
  }
}

bool FaultRegistry::poison(const char* point) {
  if (armed_points_.load(std::memory_order_relaxed) == 0) return false;
  FaultSpec spec;
  if (!triggered(point, spec)) return false;
  return spec.kind == FaultSpec::Kind::kNan;
}

FaultScope::FaultScope(std::uint64_t id) noexcept : previous_(current_scope) {
  current_scope = id;
}

FaultScope::~FaultScope() { current_scope = previous_; }

std::uint64_t FaultScope::current() noexcept { return current_scope; }

}  // namespace usb::fault
