// The per-class job contract shared by USB, NC, and TABOR, a detector's
// scan reified, and the one engine that schedules it.
//
// Every detector in this repository pays the same cost structure: K
// independent per-class reverse-engineering jobs (Alg. 1 + Alg. 2 for USB,
// the NC/TABOR optimization otherwise) followed by one MAD outlier
// reduction. Detectors supply only the per-class job, as a resumable
// ClassRefineTask (all three build it on the one refinement loop in
// defenses/masked_trigger.h); the scan engine owns everything around it:
//
//  - fan-out: every candidate class runs on the one frozen victim model —
//    layers keep their forward caches in the running stage's TensorArena,
//    not in themselves, so the classes are embarrassingly parallel with no
//    copy of the weights. A task owns only its class's state (trigger, Adam
//    moments, loader cursor); each stage borrows a scratch arena from its
//    scan, so a scan holds one arena per stage running at once, whatever K
//    is;
//  - per-class RNG streams: each job receives a stream root derived only
//    from (base_seed, class), never from thread ids or schedule order;
//  - shared probe batches: the fooling-rate evaluation batches over the full
//    probe set are materialized once and shared read-only by all K jobs.
//    DetectionService injects its ProbeStore entry's batches via
//    ClassScanOptions::external_probe_cache, so every scan naming the same
//    probe key shares one materialization;
//  - shared scan prefix: detectors may attach arbitrary class-independent
//    state (USB: the Alg. 1 craft batches and the v = 0 DeepFool warm
//    start) built once on the model before the fan-out, shared read-only by
//    every job — see ScanSharedState;
//  - ordered reduction: estimates land in class order before the MAD rule.
//
// Detector::plan() packages everything a scan needs — the per-class
// resumable-task factory, the optional shared-prefix factory, and the
// options derived from the detector's config — without binding a model, a
// probe set, a pool, or a schedule. StagedScan binds them and expresses the
// scan as a STEP GRAPH: per-class construct, refinement round, retire and
// finalize steps, plus the class-free cutoff step of early exit. Running a
// step returns the steps it enables, and the graph encodes both schedules:
//
//  - monolithic (early exit disabled): construct -> rounds until the budget
//    is spent -> finalize, per class, with no cross-class flow;
//  - round barrier (early exit): every class is constructed, then rounds
//    run in lockstep; after the last class of round r arrives (from round
//    min_rounds on) a cutoff step fixes median + margin * 1.4826 * MAD over
//    ALL classes' statistics, retires the classes above it and relaunches
//    the rest.
//
// Early exit is set in one place, the detector's config (UsbConfig,
// ReverseOptConfig, TaborConfig::base); plan() copies it into the ScanPlan,
// and both runners follow it.
//
// Two runners decide only WHERE a step runs:
//
//  - run_scan_plan, behind every Detector::detect(), drains the steps on
//    the scan pool (depth-first, blocking);
//  - DetectionService posts each step as one item on its global
//    cross-request class-job scheduler (service/round_scheduler.h).
//
// Determinism. A report is bit-identical for either runner, any pool size,
// dispatcher count, and interleaving with other scans (wall-clock timings
// aside). A class's trajectory is a schedule-free
// function of (base_seed, class): its RNG streams derive from nothing else,
// run_steps slices concatenate bit-identically, and the tensor kernels'
// tile decompositions depend only on operand sizes. So a class cannot
// observe WHEN its rounds run, only HOW MANY steps they total. The only
// cross-class data flow is the early-exit cutoff, and every cutoff reads
// statistics recorded at a logical point fixed by the graph, not by timing:
// the barrier after round r sees every class at exactly r rounds (stopped
// classes at their frozen value). The MAD reduction reads the estimates in
// class order. Hence scheduling decides only when those points are
// reached, never what is computed at them;
// tests/test_scan_scheduler.cpp and tests/test_detection_service.cpp pin
// it across thread counts, runners, and mixed-request load.
//
// The plan's closures borrow the detector that built them; the detector
// must outlive every run of the plan.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "data/probe_cache.h"
#include "defenses/detector.h"
#include "tensor/arena.h"
#include "utils/thread_pool.h"
#include "utils/timer.h"

namespace usb {

/// Base for detector-specific class-independent scan state (built once per
/// scan on the frozen model, shared read-only by all K jobs). USB
/// attaches the Alg. 1 shared prefix; NC/TABOR need nothing beyond the
/// probe cache.
struct ScanSharedState {
  virtual ~ScanSharedState() = default;
};

/// Builds the detector's shared state against the frozen model; invoked
/// once per scan, before any class task is constructed. May be empty (no
/// shared state).
using ScanSharedBuilder = std::function<std::shared_ptr<const ScanSharedState>(
    const Network& model, const Dataset& probe)>;

/// Context handed to one per-class reverse-engineering job.
struct ClassScanJob {
  std::int64_t target_class = 0;
  /// Deterministic per-class stream root; derive sub-streams (init, loader,
  /// ...) with hash_combine(rng_seed, salt). Depends only on (base_seed,
  /// target_class).
  std::uint64_t rng_seed = 0;
  /// Shared full-probe evaluation batches; never null inside a scan.
  const ProbeBatchCache* probe_cache = nullptr;
  /// Detector-specific shared scan prefix; null when the detector attached
  /// none, and in the single-class entry points, which build none.
  const ScanSharedState* shared = nullptr;
};

/// One per-class reverse-engineering job in resumable form. Construction
/// performs everything before the refinement loop (USB: all of Alg. 1 plus
/// the trigger decomposition); run_steps advances the loop in slices whose
/// concatenation is bit-identical to one uninterrupted run (all loop state —
/// data loader cursor, optimizer moments, schedules — lives in the task);
/// finalize performs the post-loop evaluation.
///
/// The task keeps no scratch: every pass runs on the arena its caller lends
/// to that one call (any arena, reset or not, warm from another class or
/// not), and no slot outlives the call.
class ClassRefineTask {
 public:
  virtual ~ClassRefineTask() = default;
  ClassRefineTask() = default;
  ClassRefineTask(const ClassRefineTask&) = delete;
  ClassRefineTask& operator=(const ClassRefineTask&) = delete;

  /// Runs up to `steps` more refinement steps on `arena`; returns the
  /// number actually executed (fewer only when the loop's own exit
  /// condition fired, after which every later call returns 0).
  virtual std::int64_t run_steps(std::int64_t steps, TensorArena& arena) = 0;

  /// Current value of the detection statistic (mask L1) — the early-exit
  /// decision input. Must be cheap and must not advance any state.
  [[nodiscard]] virtual double current_mask_l1() const = 0;

  /// Post-loop evaluation (fooling rate over the shared probe cache, on
  /// `arena`) and estimate assembly. Call exactly once, after the last
  /// run_steps.
  [[nodiscard]] virtual TriggerEstimate finalize(TensorArena& arena) = 0;
};

/// Builds the resumable form of one class's job against the scan's frozen
/// model, which every class shares; the reference stays valid for the
/// task's lifetime. Construction runs its passes (USB: Alg. 1) on the lent
/// arena, which the task must not keep.
using RefineTaskFn = std::function<std::unique_ptr<ClassRefineTask>(
    const Network&, const Dataset&, const ClassScanJob&, TensorArena&)>;

/// Early-exit configuration. Disabled by default; when disabled the scan is
/// bit-identical to running every class through its full budget.
///
/// Enabled, each class's refinement budget is split into rounds, and a
/// class whose mask-L1 statistic exceeds the running median by the
/// MAD-outlier margin stops refining: the decision rule only flags LOW-side
/// outliers, so a class far above the pack is very unlikely to matter. This
/// is a heuristic budget/accuracy trade — mask-L1 is not monotone under
/// refinement, so a retired class could in principle have descended below
/// the median given its full budget; margin/min_rounds tune that risk.
///
/// Rounds run in lockstep: after every round (from min_rounds on) one
/// cutoff over all K classes' statistics retires the classes above it. The
/// detector's config is the only place early exit is set; a scan through
/// DetectionService follows it exactly as detect() does.
struct EarlyExitOptions {
  bool enabled = false;
  /// Steps per round; <= 0 derives ceil(total_steps / 6).
  std::int64_t round_steps = 0;
  /// Rounds every class must complete before it may be stopped.
  std::int64_t min_rounds = 1;
  /// Stop a class when its statistic exceeds the running median by more
  /// than `margin` consistency-scaled MADs (the same 1.4826 scaling the
  /// decision rule uses). 0 stops everything strictly above the median.
  double margin = 1.0;
};

/// Scan progress notifications (ClassScanOptions::progress).
enum class ClassScanEvent {
  kRetired,      // early exit stopped the class before its full budget
  kFinalized,    // estimate assembled (fooling rate evaluated)
  kQuarantined,  // non-finite statistic at a round boundary; class excluded
};

/// Per-class progress callback. Invoked from scan worker threads, possibly
/// concurrently for different classes — implementations must be
/// thread-safe. Must not throw.
using ClassProgressFn =
    std::function<void(std::int64_t target_class, ClassScanEvent event, double mask_l1)>;

struct ClassScanOptions {
  /// Root seed for the per-class RNG streams (typically the detector seed).
  std::uint64_t base_seed = 0;
  /// Prebuilt probe cache to reuse across scans of the same probe set (the
  /// service sets its ProbeStore entry's). Used only when it is batched at
  /// kEvalBatchSize and its sample count matches the probe (else the scan
  /// silently builds its own); it must be built from the SAME probe set and
  /// outlive the scan.
  const ProbeBatchCache* external_probe_cache = nullptr;
  EarlyExitOptions early_exit;
  /// Per-class progress notifications; null disables them. Carries no
  /// numeric effect on the report.
  ClassProgressFn progress;
};

/// The per-class stream root: hash of the base seed and the class only.
[[nodiscard]] std::uint64_t class_stream_seed(std::uint64_t base_seed,
                                              std::int64_t target_class) noexcept;

/// The job for one class against an existing cache. Single-class entry
/// points (reverse_engineer_class) build theirs the same way, so they
/// match the class's estimate inside a full scan exactly.
[[nodiscard]] ClassScanJob make_class_job(const ClassScanOptions& options,
                                          std::int64_t target_class,
                                          const ProbeBatchCache& cache,
                                          const ScanSharedState* shared = nullptr) noexcept;

/// The probe cache a scan actually uses: the injected
/// options.external_probe_cache when its batching (kEvalBatchSize) AND
/// sample count match this probe (the bit-identity preconditions — a cache
/// built from a different probe set of the same size is still the caller's
/// responsibility), else a build into `local`. The cache holds a transient
/// copy of the probe set — cheap at this repo's probe scale (<=500 small
/// images).
[[nodiscard]] const ProbeBatchCache* select_scan_probe_cache(const ClassScanOptions& options,
                                                             const Dataset& probe,
                                                             ProbeBatchCache& local);

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
};

/// One scan as a step graph over resumable per-class tasks (see the file
/// comment). Usage: prepare(), then run(step) for every step of start() and
/// every step a run() returns, then take_report().
///
/// Thread-safety: run() may be called concurrently for any steps the graph
/// has handed out — it never hands out two steps of one class at once, and
/// the cross-class schedule state (recorded statistics, parked classes,
/// round counts, spare arenas) lives under an internal lock. prepare() and
/// take_report() require quiescence (no step in flight). The model and
/// probe must outlive the StagedScan.
///
/// Scratch memory. Each construct, round and finalize borrows a TensorArena
/// from the scan — a spare one, or a new one when none is spare — and runs
/// its class's passes on it. A construct or round gives its arena back as a
/// spare when it ends; a finalize frees its arena, as its evaluation batches
/// would outgrow every later stage's need. So the scan holds as many arenas
/// as it runs stages at once (its pool workers or the service's
/// dispatchers), however many classes are constructed and waiting, and the
/// spares die with the StagedScan. Reports do not depend on which arena a
/// stage gets: every stage starts its arena at a reset, and no pass reads a
/// slot it did not write.
class StagedScan {
 public:
  /// `model` must be frozen and classify as many classes as the probe
  /// (std::invalid_argument otherwise). Every class stage and the
  /// shared-prefix builder run their passes on it, each on an arena of its
  /// own, so the scan never writes to it: one instance may serve any number
  /// of concurrent scans (a ModelStore resident does).
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
  /// pipeline) on the shared model, on a borrowed arena.
  void construct_class(std::int64_t target_class);

  /// Advances class t by one round (min(round_steps, its remaining
  /// budget)) on a borrowed arena; returns true while budget remains
  /// afterwards. A task whose own exit condition fires mid-round zeroes its
  /// budget. A non-finite statistic at the round boundary quarantines the
  /// class: budget zeroed, state kNumericallyUnstable, excluded from cutoffs
  /// and the verdict.
  bool run_round(std::int64_t target_class);

  /// Evaluates class t's fooling rate on a borrowed arena, assembles its
  /// estimate, emits kFinalized, then frees the class's task and that
  /// arena. Exactly once per class, after its last round.
  void finalize_class(std::int64_t target_class);

  /// Ordered MAD reduction + wall time. Call once, with no step in flight —
  /// normally after every class finalized, but also legal on a PARTIAL scan
  /// (deadline expiry): classes that never finalized keep their
  /// kPending/kRefining state, are peeled out of the verdict, and the
  /// report says so via per_class_state.
  [[nodiscard]] DetectionReport take_report();

 private:
  enum class Mode { kMonolithic, kBarrier };

  /// One stage's scratch arena (see the class comment): borrowed at
  /// construction; reset and given back as a spare on destruction, unless
  /// discard() freed it first.
  class ArenaLease {
   public:
    explicit ArenaLease(StagedScan& scan);
    ~ArenaLease();
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;

    [[nodiscard]] TensorArena& operator*() const noexcept { return *arena_; }
    /// Frees the arena now instead of keeping it as a spare.
    void discard();

   private:
    StagedScan& scan_;
    std::unique_ptr<TensorArena> arena_;
  };

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
  // Arenas no stage holds. Its capacity covers every arena alive (lent or
  // spare), so giving one back never allocates.
  std::vector<std::unique_ptr<TensorArena>> spare_arenas_;
  std::size_t arenas_alive_ = 0;
};

/// Runs a plan to completion on the calling thread — the blocking runner
/// behind every Detector::detect(). Workers of `pool` claim steps
/// depth-first from one LIFO stack, so a worker carries its class through
/// to finalize before it claims a new construct: in the monolithic schedule
/// at most pool-size classes are live at once. An idle worker waits for the
/// next step; the first exception stops new claims and is rethrown once the
/// steps already running have finished. Called from inside a pool worker,
/// it drains every step inline.
/// Freezes `model` first, so detect() leaves the caller's model frozen.
[[nodiscard]] DetectionReport run_scan_plan(const ScanPlan& plan, Network& model,
                                            const Dataset& probe, ThreadPool& pool);

}  // namespace usb
