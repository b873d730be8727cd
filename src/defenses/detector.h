// Common interface for backdoor detectors (NC, TABOR, USB).
//
// A detector receives the frozen victim model and a small clean probe set,
// reverse engineers one candidate trigger per class, and reduces each to a
// mask-L1 statistic fed to the MAD outlier rule (metrics/detection.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "metrics/detection.h"
#include "nn/models.h"
#include "utils/thread_pool.h"

namespace usb {

/// One reverse-engineered candidate trigger.
struct TriggerEstimate {
  std::int64_t target_class = 0;
  Tensor pattern;          // (C,H,W), values in [0,1]
  Tensor mask;             // (H,W), values in [0,1]
  double mask_l1 = 0.0;    // detection statistic
  double final_loss = 0.0;
  double fooling_rate = 0.0;  // probe fraction sent to target_class

  /// The full-size reversed trigger image pattern*mask, (C,H,W).
  [[nodiscard]] Tensor image() const;
};

/// Completion state of one class's scan (DetectionReport::per_class_state).
/// kFinalized is the only state whose mask-L1 enters the MAD reduction;
/// every other state is peeled out (decide_backdoor) so a diverged or
/// unfinished class cannot poison the verdict for the rest.
enum class ClassScanState : std::uint8_t {
  kPending,    // scan ended (deadline/fault) before the class's task was built
  kRefining,   // task built, refinement unfinished when the scan ended
  kFinalized,  // estimate complete — participates in the verdict
  kNumericallyUnstable,  // quarantined: non-finite statistic, excluded
};

[[nodiscard]] std::string to_string(ClassScanState state);

struct DetectionReport {
  std::string method;
  std::vector<TriggerEstimate> per_class;
  /// Same length as per_class on every scan path; all-kFinalized on a
  /// healthy complete scan. Partial reports (ScanStatus::kTimedOut) and
  /// quarantines are legible here: a non-kFinalized class's per_class entry
  /// carries no meaningful estimate (quarantined classes report a NaN
  /// mask_l1) and its norm is excluded from the verdict.
  std::vector<ClassScanState> per_class_state;
  DetectionVerdict verdict;
  std::vector<double> per_class_seconds;  // per-class wall clock, Table 7
  /// End-to-end scan wall clock, measured around the whole fan-out. Under
  /// the parallel scan this is what a caller actually waits, while the
  /// per-class sum below approaches K times it; report both (Table 7 does).
  double wall_seconds = 0.0;

  /// Sum of the per-class wall clocks — the paper's Table 7 accounting
  /// (work performed), NOT elapsed time: concurrent class jobs each
  /// contribute their full duration, so under a parallel scan this exceeds
  /// `wall_seconds` by up to the pool width.
  [[nodiscard]] double total_seconds() const noexcept {
    double total = 0.0;
    for (const double s : per_class_seconds) total += s;
    return total;
  }
  /// per_class[k].image(), with k range-checked.
  [[nodiscard]] Tensor reversed_trigger(std::int64_t k) const;

  /// True when every class reached a terminal per-class state (kFinalized
  /// or kNumericallyUnstable) — i.e. the scan ran to the end rather than
  /// being cut short by a deadline or fault.
  [[nodiscard]] bool complete() const noexcept;

  /// Classes quarantined as kNumericallyUnstable, in class order.
  [[nodiscard]] std::vector<std::int64_t> quarantined_classes() const;
};

struct ScanPlan;  // defenses/scan_plan.h

class Detector {
 public:
  virtual ~Detector() = default;
  Detector() = default;
  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reifies this detector's scan (per-class task factory, shared-prefix
  /// builder, scheduler options) without running it — see
  /// defenses/scan_plan.h. The plan's closures borrow `this`, which must
  /// outlive any run of the plan. detect() runs the plan synchronously;
  /// DetectionService runs it asynchronously with its probe cache wired in.
  [[nodiscard]] virtual ScanPlan plan() const = 0;

  /// Runs detection synchronously on `pool`'s workers. `probe` is the
  /// defender's clean data (the paper uses 300 samples for 32x32 datasets,
  /// 500 for the ImageNet subset). A thin adapter:
  /// run_scan_plan(plan(), model, probe, pool). The report is bit-identical
  /// for any pool size.
  [[nodiscard]] DetectionReport detect(Network& model, const Dataset& probe,
                                       ThreadPool& pool = ThreadPool::global()) const;

  /// Reverse engineers the trigger for one class alone (the figure benches
  /// visualize per-class results this way): builds the class's task from
  /// plan() and runs its full budget. Seeds exactly as the scan does, so
  /// the estimate matches detect()'s class `target_class` bit for bit.
  /// Leaves `model` frozen, as detect() does.
  [[nodiscard]] TriggerEstimate reverse_engineer_class(Network& model, const Dataset& probe,
                                                       std::int64_t target_class) const;
};

using DetectorPtr = std::unique_ptr<Detector>;

}  // namespace usb
