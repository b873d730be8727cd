// The per-class job contract shared by USB, NC, and TABOR.
//
// Every detector in this repository pays the same cost structure: K
// independent per-class reverse-engineering jobs (Alg. 1 + Alg. 2 for USB,
// the NC/TABOR optimization otherwise) followed by one MAD outlier
// reduction. Detectors supply only the per-class job, as a resumable
// ClassRefineTask; the scan engine (StagedScan in scan_plan.h) owns
// everything around it:
//
//  - fan-out: every candidate class runs on the one frozen victim model —
//    layers keep their forward caches in the task's TensorArena, not in
//    themselves, so the classes are embarrassingly parallel with no copy
//    of the weights;
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
// Why reports are bit-identical for any schedule is argued once, in
// scan_plan.h.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "data/dataloader.h"
#include "data/probe_cache.h"
#include "defenses/detector.h"
#include "utils/thread_pool.h"

namespace usb {

class MaskedTrigger;
class TensorArena;

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
  /// none (or sharing is disabled).
  const ScanSharedState* shared = nullptr;
};

/// One per-class reverse-engineering job in resumable form. Construction
/// performs everything before the refinement loop (USB: all of Alg. 1 plus
/// the trigger decomposition); run_steps advances the loop in slices whose
/// concatenation is bit-identical to one uninterrupted run (all loop state —
/// data loader cursor, optimizer moments, schedules — lives in the task);
/// finalize performs the post-loop evaluation.
class ClassRefineTask {
 public:
  virtual ~ClassRefineTask() = default;
  ClassRefineTask() = default;
  ClassRefineTask(const ClassRefineTask&) = delete;
  ClassRefineTask& operator=(const ClassRefineTask&) = delete;

  /// Runs up to `steps` more refinement steps; returns the number actually
  /// executed (fewer only when the loop's own exit condition fired, after
  /// which every later call returns 0).
  virtual std::int64_t run_steps(std::int64_t steps) = 0;

  /// Current value of the detection statistic (mask L1) — the early-exit
  /// decision input. Must be cheap and must not advance any state.
  [[nodiscard]] virtual double current_mask_l1() const = 0;

  /// Post-loop evaluation (fooling rate over the shared probe cache) and
  /// estimate assembly. Call exactly once, after the last run_steps.
  [[nodiscard]] virtual TriggerEstimate finalize() = 0;
};

/// Builds the resumable form of one class's job against the scan's frozen
/// model, which every class shares; the reference stays valid for the
/// task's lifetime. Tasks run passes on their own arenas only.
using RefineTaskFn = std::function<std::unique_ptr<ClassRefineTask>(
    const Network&, const Dataset&, const ClassScanJob&)>;

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
  /// Async retirement instead of a barrier after every round: the scan
  /// synchronizes ONCE — after every class has run max(1, min_rounds)
  /// rounds — to fix the MAD cutoff, then lets each class run its remaining
  /// rounds untethered, retiring the moment its own mask-L1 crosses that
  /// fixed cutoff. A slow class no longer gates the others' rounds. Intended
  /// to be driven through DetectionService::ScanOptions; no detector config
  /// sets it by default. Ignored when `enabled` is false.
  bool async = false;
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
  double mad_threshold = 2.0;
  /// Root seed for the per-class RNG streams (typically the detector seed).
  std::uint64_t base_seed = 0;
  /// Pool override for tests/benches; nullptr means ThreadPool::global().
  ThreadPool* pool = nullptr;
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

/// The early-exit retirement cutoff: median + margin * 1.4826 * MAD over
/// the FINITE entries of `norms` (quarantined classes feed a NaN and must
/// not shift the statistic; no finite entries -> +infinity, nothing
/// retires). With every entry finite it is exactly the historical inline
/// computation.
[[nodiscard]] double early_exit_cutoff(std::span<const double> norms, double margin);

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

/// Fraction of cached probe samples that `trigger` sends to `target_class`
/// on the frozen `model`. The shared replacement for the per-detector
/// final_fooling_rate loops. The trigger-applied batch and the forward pass
/// live in `arena` (one Scope per batch), so a warmed arena evaluates with
/// zero Tensor heap allocations — the same contract the refinement step
/// holds (tests/test_arena.cpp). Null uses a private arena; the results are
/// bit-identical either way.
[[nodiscard]] double fooling_rate(const Network& model, const ProbeBatchCache& cache,
                                  const MaskedTrigger& trigger, std::int64_t target_class,
                                  TensorArena* arena = nullptr);

/// The TriggerEstimate every masked-trigger detector reports from
/// ClassRefineTask::finalize(): the trigger's decomposition plus its fooling
/// rate over the job's shared probe cache. Tasks pass their step arena so
/// finalize stays on the zero-allocation path (see fooling_rate).
[[nodiscard]] TriggerEstimate finalize_estimate(const Network& model, const ClassScanJob& job,
                                                const MaskedTrigger& trigger, float last_loss,
                                                TensorArena* arena = nullptr);

}  // namespace usb
