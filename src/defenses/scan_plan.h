// A detector's scan, reified, and the one engine that schedules it.
//
// Detector::plan() packages everything a scan needs — the per-class
// resumable-task factory, the optional shared-prefix factory, and the
// options derived from the detector's config — without binding a model, a
// probe set, a pool, or a schedule. StagedScan binds them and expresses the
// scan as a STEP GRAPH: per-class construct, refinement round, retire and
// finalize steps, plus the class-free cutoff step of early exit. Running a
// step returns the steps it enables, and the graph encodes all three
// schedules:
//
//  - monolithic (early exit disabled): construct -> rounds until the budget
//    is spent -> finalize, per class, with no cross-class flow;
//  - round barrier (early exit): every class is constructed, then rounds
//    run in lockstep; after the last class of round r arrives (from round
//    min_rounds on) a cutoff step fixes median + margin * 1.4826 * MAD over
//    ALL classes' statistics, retires the classes above it and relaunches
//    the rest;
//  - async rendezvous (early exit + EarlyExitOptions::async): each class
//    runs max(1, min_rounds) rounds and arrives; once all K arrived one
//    cutoff step fixes the cutoff, and each class then runs untethered,
//    checking it before every further round.
//
// Two runners decide only WHERE a step runs:
//
//  - run_scan_plan, behind every Detector::detect(), drains the steps on
//    the scan pool (depth-first, blocking);
//  - DetectionService posts each step as one item on its global
//    cross-request class-job scheduler (service/round_scheduler.h).
//
// Determinism. A report is bit-identical for either runner, any pool size,
// dispatcher count, priority assignment, and interleaving with other scans
// (wall-clock timings aside). A class's trajectory is a schedule-free
// function of (base_seed, class): its RNG streams derive from nothing else,
// run_steps slices concatenate bit-identically, and the tensor kernels'
// tile decompositions depend only on operand sizes. So a class cannot
// observe WHEN its rounds run, only HOW MANY steps they total. The only
// cross-class data flow is the early-exit cutoff, and every cutoff reads
// statistics recorded at a logical point fixed by the graph, not by timing:
// the barrier after round r sees every class at exactly r rounds (stopped
// classes at their frozen value), and the rendezvous sees every class at
// exactly max(1, min_rounds) rounds. After the rendezvous, every retirement
// is a pure function of (own trajectory, fixed cutoff). The MAD reduction
// reads the estimates in class order. Hence scheduling decides only when
// those points are reached, never what is computed at them;
// tests/test_scan_scheduler.cpp and tests/test_detection_service.cpp pin
// it across thread counts, runners, and mixed-request load.
//
// The plan's closures borrow the detector that built them; the detector
// must outlive every run of the plan.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "defenses/class_scan_scheduler.h"
#include "defenses/detector.h"
#include "utils/timer.h"

namespace usb {

struct ScanPlan {
  std::string method;
  ClassScanOptions options;
  /// Full refinement budget per class (total run_steps of one task).
  std::int64_t total_steps = 0;
  RefineTaskFn make_task;
  ScanSharedBuilder shared_builder;  // null when the detector shares nothing
};

/// One node of a scan's step graph.
struct ScanStep {
  enum class Kind : std::uint8_t { kConstruct, kRound, kCutoff, kRetire, kFinalize };
  Kind kind = Kind::kConstruct;
  std::int64_t target_class = 0;  // unused by kCutoff

  /// "scan.construct", "scan.round", ...: a static string naming the step
  /// in heartbeats and retries.
  [[nodiscard]] const char* label() const noexcept;
};

/// One scan as a step graph over resumable per-class tasks (see the file
/// comment). Usage: prepare(), then run(step) for every step of start() and
/// every step a run() returns, then take_report().
///
/// Thread-safety: run() may be called concurrently for any steps the graph
/// has handed out — it never hands out two steps of one class at once, and
/// the cross-class schedule state (recorded statistics, arrivals, cutoff)
/// lives under an internal lock. prepare() and take_report() require
/// quiescence (no step in flight). The model and probe must outlive the
/// StagedScan.
class StagedScan {
 public:
  /// `model` must be frozen (std::invalid_argument otherwise). Every class
  /// task and the shared-prefix builder run their passes on it, each on its
  /// own arena, so the scan never writes to it: one instance may serve any
  /// number of concurrent scans (a ModelStore resident does).
  StagedScan(ScanPlan plan, const Network& model, const Dataset& probe);

  StagedScan(const StagedScan&) = delete;
  StagedScan& operator=(const StagedScan&) = delete;

  [[nodiscard]] std::int64_t num_classes() const noexcept { return num_classes_; }

  /// Adopts or builds the probe cache and runs the detector's shared-prefix
  /// builder on the model. Call once, before any other stage.
  void prepare();

  /// The graph's roots: one construct step per class, in class order.
  [[nodiscard]] std::vector<ScanStep> start() const;

  /// Executes one step and returns the steps it enables (possibly none).
  /// Every step faults at its entry point (scan.construct / scan.round /
  /// scan.cutoff / scan.retire / scan.finalize) before mutating anything
  /// shared, so a step that threw there may simply be run again.
  [[nodiscard]] std::vector<ScanStep> run(const ScanStep& step);

  /// True once every class is finalized — the graph is exhausted.
  [[nodiscard]] bool finished() const;

  // The stages one step executes, for callers that replay the monolithic
  // schedule by hand (perfbench's traced replay). run() is built on them.

  /// Constructs class t's resumable task (the whole pre-refinement
  /// pipeline) on the shared model.
  void construct_class(std::int64_t target_class);

  /// Advances class t by one round (min(round_steps, its remaining
  /// budget)); returns true while budget remains afterwards. A task whose
  /// own exit condition fires mid-round zeroes its budget. A non-finite
  /// statistic at the round boundary quarantines the class: budget zeroed,
  /// state kNumericallyUnstable, excluded from cutoffs and the verdict.
  bool run_round(std::int64_t target_class);

  /// Evaluates class t's fooling rate, assembles its estimate, emits
  /// kFinalized, then frees the class's task (and its arena). Exactly once
  /// per class, after its last round.
  void finalize_class(std::int64_t target_class);

  /// Ordered MAD reduction + wall time. Call once, with no step in flight —
  /// normally after every class finalized, but also legal on a PARTIAL scan
  /// (deadline expiry): classes that never finalized keep their
  /// kPending/kRefining state, are peeled out of the verdict, and the
  /// report says so via per_class_state.
  [[nodiscard]] DetectionReport take_report();

 private:
  enum class Mode { kMonolithic, kBarrier, kRendezvous };

  void notify(std::int64_t target_class, ClassScanEvent event, double mask_l1) const;
  /// Class t's statistic as its own step sees it: NaN once quarantined.
  [[nodiscard]] double class_stat(std::int64_t target_class) const;
  /// The cutoff step: retires the parked classes above the cutoff and
  /// relaunches the rest. Takes mu_ itself.
  [[nodiscard]] std::vector<ScanStep> run_cutoff();
  /// Schedule transitions after a class's step; these and the helpers
  /// below require mu_.
  [[nodiscard]] std::vector<ScanStep> after_construct_locked(std::int64_t target_class,
                                                             bool more);
  [[nodiscard]] std::vector<ScanStep> after_round_locked(std::int64_t target_class, bool more);
  /// Parks a class with budget left for the next cutoff, else finalizes it.
  void park_locked(std::int64_t target_class, bool more, std::vector<ScanStep>& out);
  /// Rendezvous arrival; the K-th one enables the cutoff.
  void arrive_locked(std::int64_t target_class, bool more, std::vector<ScanStep>& out);
  /// Starts the next lockstep round for every parked class.
  void launch_round_locked(std::vector<ScanStep>& out);

  ScanPlan plan_;
  const Network* model_;
  const Dataset* probe_;
  std::int64_t num_classes_;
  std::int64_t round_steps_;
  Mode mode_;
  Timer wall_;

  ProbeBatchCache local_cache_;
  const ProbeBatchCache* eval_cache_ = nullptr;
  std::shared_ptr<const ScanSharedState> shared_;

  // Per-class slots: touched only by the class's own steps, which the
  // graph runs one at a time.
  std::vector<std::unique_ptr<ClassRefineTask>> tasks_;
  std::vector<std::int64_t> remaining_;
  DetectionReport report_;

  // Cross-class schedule state.
  mutable std::mutex mu_;
  std::vector<double> stats_;  // each class's mask-L1 at its last construct/round end
  std::vector<std::int64_t> parked_;  // classes with budget left, waiting on a cutoff
  std::int64_t constructed_ = 0;
  std::int64_t finalized_ = 0;
  std::int64_t in_round_ = 0;     // barrier: classes still running the current round
  std::int64_t rounds_done_ = 0;  // barrier: completed lockstep rounds
  std::int64_t arrived_ = 0;      // rendezvous: classes past their rendezvous rounds
  std::vector<std::int64_t> rendezvous_left_;  // rendezvous: rounds before arrival
  bool cutoff_fixed_ = false;                   // rendezvous: untethered phase began
  double cutoff_ = 0.0;                         // rendezvous: the fixed cutoff
};

/// Runs a plan to completion on the calling thread — the blocking runner
/// behind every Detector::detect(). Pool workers (options.pool, else
/// ThreadPool::global()) claim steps depth-first from one LIFO stack, so a
/// worker carries its class through to finalize before it claims a new
/// construct: in the monolithic schedule at most pool-size classes are live
/// at once. An idle worker waits for the next step; the first exception
/// stops new claims and is rethrown once the steps already running have
/// finished. Called from inside a pool worker, it drains every step inline.
/// Freezes `model` first, so detect() leaves the caller's model frozen.
[[nodiscard]] DetectionReport run_scan_plan(const ScanPlan& plan, Network& model,
                                            const Dataset& probe);

}  // namespace usb
