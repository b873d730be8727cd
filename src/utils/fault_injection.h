// Compiled-in fault-injection hook points for the serving stack.
//
// Production-grade fault handling is only trustworthy if every failure path
// is actually executed, and the interesting paths (a refinement round that
// throws mid-scan, a probe materialization that dies, a statistic that
// diverges to NaN) cannot be reached from outside the process. So the hook
// points stay compiled in: each `USB_FAULT_POINT(name)` site is one relaxed
// atomic load when nothing is armed — cheap enough for stage boundaries the
// regression gate holds to <2% overhead — and tests arm the registry to
// throw, delay, or poison a statistic at the Nth hit of a named point.
//
// Scoping: hits can be tagged with the owning scan's id (FaultScope, set by
// the service around every stage it runs), and a spec armed with a nonzero
// `scope` triggers — and counts — only for that scan. This is how the tests
// fault one scan while a concurrent healthy scan on the same dispatchers
// stays untouched.
//
// The registry is process-global and thread-safe; tests must disarm_all()
// on teardown (gtest fixtures do) so suites stay independent.
//
// Point catalog (grep for USB_FAULT_POINT / USB_FAULT_NAN to verify):
//   scan.prepare / scan.construct / scan.round / scan.cutoff /
//   scan.retire / scan.finalize   stage boundaries of a running scan, for
//                                 detect() and the service alike
//                                 (src/defenses/scan_plan.cpp)
//   scan.round_stat               USB_FAULT_NAN: the mask-L1 statistic at a
//                                 round boundary reads NaN, so the class is
//                                 quarantined (src/defenses/scan_plan.cpp)
//   probe_store.materialize       probe dataset generation
//   model_store.load              checkpoint model resolution
//   fleet.spawn                   WorkerFleet: one fork/exec attempt; a
//                                 throw is a failed spawn and backs off
//   fleet.route                   WorkerFleet: before a request frame is
//                                 written to a worker; a throw is treated
//                                 as worker death (EPIPE stand-in) — the
//                                 request takes a kill and re-dispatches
//   fleet.heartbeat               WorkerFleet: before a ping is sent; a
//                                 throw means the worker is unreachable,
//                                 same as heartbeat silence
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace usb::fault {

/// Thrown by a triggered kThrow fault point.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

struct FaultSpec {
  enum class Kind {
    kThrow,   // USB_FAULT_POINT throws InjectedFault
    kDelay,   // USB_FAULT_POINT sleeps delay_seconds
    kNan,     // USB_FAULT_NAN returns true (the site substitutes a NaN)
  };
  Kind kind = Kind::kThrow;
  /// Trigger starting at hit #after_hits of the point (0-based, counted
  /// per arm(): re-arming resets the counter).
  std::int64_t after_hits = 0;
  /// How many consecutive hits trigger from there; < 0 = every later hit.
  std::int64_t count = 1;
  double delay_seconds = 0.0;  // kDelay
  /// kThrow message; empty derives "injected fault at <point>".
  std::string message;
  /// 0 matches any hit; nonzero matches (and counts) only hits whose
  /// thread's FaultScope carries this id.
  std::uint64_t scope = 0;
};

class FaultRegistry {
 public:
  static FaultRegistry& instance();

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Arms (or re-arms, resetting the hit counter) one point.
  void arm(const std::string& point, FaultSpec spec);
  void disarm(const std::string& point);
  void disarm_all();

  /// Hits counted for `point` since it was last armed (scope-filtered).
  /// 0 for points never armed.
  [[nodiscard]] std::int64_t hits(const std::string& point) const;

  /// USB_FAULT_POINT body. May throw InjectedFault or sleep; returns
  /// immediately when nothing is armed.
  void on_point(const char* point);

  /// USB_FAULT_NAN body: true when the site must substitute a NaN for the
  /// value it just computed.
  [[nodiscard]] bool poison(const char* point);

 private:
  FaultRegistry() = default;

  struct PointState {
    FaultSpec spec;
    std::int64_t hits = 0;
  };

  /// Counts the hit and copies the spec out when it triggers.
  [[nodiscard]] bool triggered(const char* point, FaultSpec& spec);

  mutable std::mutex mutex_;
  std::atomic<std::int64_t> armed_points_{0};  // fast-path gate
  std::unordered_map<std::string, PointState> points_;
};

/// RAII thread-local tag naming the scan (or other unit of isolation) the
/// current thread is executing for, matched against FaultSpec::scope.
/// Nests; restores the previous tag on destruction.
class FaultScope {
 public:
  explicit FaultScope(std::uint64_t id) noexcept;
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  [[nodiscard]] static std::uint64_t current() noexcept;

 private:
  std::uint64_t previous_;
};

}  // namespace usb::fault

/// A named hook point; may throw InjectedFault or delay when armed. Place
/// at stage/phase boundaries where a real fault (bad input, OOM, bug in a
/// detector) could surface.
#define USB_FAULT_POINT(name) ::usb::fault::FaultRegistry::instance().on_point(name)

/// A named value-poisoning point: true means "pretend the value computed
/// here came out NaN". Place where numerical divergence would surface.
#define USB_FAULT_NAN(name) ::usb::fault::FaultRegistry::instance().poison(name)
