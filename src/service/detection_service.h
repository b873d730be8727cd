// DetectionService: a session/request API over the scan engine.
//
// The paper's workflow — reverse-engineer one UAP-guided trigger per class,
// MAD-reduce the mask-L1 statistics — is a blocking Detector::detect() call
// per (model, method). Production traffic wants more: many models scanned
// by many methods concurrently, probe datasets shared across requests
// instead of regenerated per case, scans that can be cancelled, and
// progress that can be observed. The service owns that session state:
//
//  - one scan ThreadPool shared by every in-flight request (tensor kernels
//    of overlapping scans interleave on the same workers);
//  - a content-addressed ProbeStore (data/probe_store.h): requests name
//    their probe by (DatasetSpec, size, seed) and every request with the
//    same key shares one immutable Dataset + ProbeBatchCache across
//    methods, models, cases, and scales;
//  - a GLOBAL CLASS-JOB SCHEDULER (service/round_scheduler.h): every
//    admitted scan is decomposed into schedulable steps — per-class task
//    construction, individual refinement rounds, early-exit cutoffs,
//    retirements, finalizes — and all admitted scans' steps flatten into
//    one fair-share queue drained by a small dispatcher crew. Every scan
//    has an equal share, so a K=4 scan submitted behind a K=43 scan on a
//    saturated service interleaves with it round-for-round and finishes
//    first instead of waiting for the whole backlog; dispatchers have no
//    per-request affinity, so capacity freed by one scan is stolen by
//    whichever request is most deserving.
//
// Each item is one step of the scan's StagedScan step graph — the same
// engine detect() drains on its pool — so a report produced through the
// service is bit-identical to Detector::detect() on the same (model, probe,
// config) for any pool size, dispatcher count, and interleaving with
// other requests (the argument is in defenses/scan_plan.h;
// tests/test_detection_service.cpp pins it).
//
// FAILURE SEMANTICS (the robustness layer; see also README "Failure
// semantics" and tests/test_fault_injection.cpp + tests/test_overload.cpp):
//  - deadlines: checked at every item boundary. Expiry resolves kTimedOut
//    with a partial report whose per_class_state says how far each class
//    got.
//  - fault isolation: an exception escaping any stage item is routed to
//    the owning scan (kFailed + error); the dispatcher crew and every
//    other scan's queue keep draining — one faulty request fails only
//    itself.
//  - transient-fault retries: a stage that fails TRANSIENTLY (TransientError
//    / ScanError{transient} from a detector, a probe materialization
//    failure, an injected fault, an ENOMEM) is re-enqueued with exponential
//    backoff up to ScanOptions::max_retries times via the scheduler's timer
//    queue — no dispatcher ever sleeps through a backoff. A retried scan
//    that eventually succeeds is byte-identical to detect(); exhaustion
//    resolves kFailed with the retry count in ScanOutcome::retries.
//  - load shedding: a submit that would queue past the queue-depth
//    watermark (DetectionServiceConfig::shed_queue_depth) resolves kShed
//    before submit() returns, without ever queueing. Scans already queued
//    or admitted are never shed.
//  - memory ledger: probe materializations, resident models, and arena
//    high-water bytes register with utils/memory_budget.h, which health()
//    reports. A scan never copies its model, so a queued scan holds no
//    budgeted bytes, and an admitted one holds an arena only for each of
//    its stages running on a dispatcher (plus spares), not one per class.
//  - numerical quarantine: a class whose round statistic goes non-finite
//    is retired with ClassScanState::kNumericallyUnstable and peeled from
//    every MAD population; the scan still resolves kDone and the report
//    names the quarantined classes.
// When no fault occurs, no deadline is hit, nothing is quarantined, and no
// shed watermark or retry option is armed, every path above is inert and
// reports stay bit-identical to detect().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/probe_store.h"
#include "defenses/detector.h"
#include "defenses/scan_plan.h"
#include "service/model_store.h"
#include "service/round_scheduler.h"
#include "utils/thread_pool.h"

namespace usb {

enum class ScanStatus {
  kQueued,     // submitted, not yet admitted to the global scheduler
  kRunning,    // admitted; its stages are flowing through the dispatchers
  kDone,       // report available
  kCancelled,  // cancel() (or service shutdown) stopped it
  kFailed,     // the scan threw; see ScanOutcome::error
  kTimedOut,   // deadline expired; a PARTIAL report is available
  kShed,       // refused by overload shedding at submit(); never ran
};

[[nodiscard]] std::string to_string(ScanStatus status);

/// Terminal result of a scan. `report` is meaningful when status is kDone
/// (complete) or kTimedOut (partial: DetectionReport::per_class_state says
/// how far each class got; non-finalized classes are peeled from the
/// verdict); `error` only when kFailed or kShed (the shed reason).
struct ScanOutcome {
  ScanStatus status = ScanStatus::kQueued;
  DetectionReport report;
  std::string error;
  /// Stage items re-enqueued after a transient failure (see
  /// ScanOptions::max_retries). Recorded for every terminal status — a
  /// kFailed scan whose retry budget ran out reports how many were spent.
  std::int64_t retries = 0;
};

/// Per-request execution options. None of them changes what a completed
/// scan computes: the scan runs exactly as the detector's own config
/// dictates (early exit included), which is what makes submit()
/// byte-identical to detect().
struct ScanOptions {
  /// Per-class progress notifications (task finalized / early-retired).
  /// Invoked from dispatcher threads, possibly concurrently — must be
  /// thread-safe and must not throw.
  ClassProgressFn progress;
  /// Wall-clock deadline, measured from submit(); <= 0 or NaN (default 0) =
  /// no deadline, and longer than kMaxSpanSeconds (utils/timer.h; infinity
  /// included) counts as that limit. The deadline is checked at every stage
  /// boundary — never mid-kernel — so an expired scan resolves to kTimedOut
  /// within one stage's latency, with a partial report. A scan that
  /// finishes its last stage before anyone observes the expiry still
  /// resolves kDone: completed work is never thrown away. A scan still
  /// queued past its deadline is dropped without ever consuming a
  /// dispatcher. Deadlines that are set but never hit have no numeric
  /// effect (submit() stays byte-identical to detect()).
  double deadline_seconds = 0.0;
  /// Transient-failure retries PER STAGE ITEM (probe materialization, a
  /// class construct, one refinement round, a cutoff, a finalize): a stage
  /// that throws TransientError / ScanError{transient} /
  /// fault::InjectedFault / std::bad_alloc is re-enqueued with exponential backoff until its
  /// per-item budget runs out, then the scan resolves kFailed with the
  /// count in ScanOutcome::retries. Safe because every retryable stage
  /// re-derives its work from pristine inputs (construct rebuilds the task
  /// on the frozen model; rounds fault at entry, before mutation), so a
  /// retried scan that succeeds stays byte-identical to detect().
  /// 0 (default) = transient failures fail like permanent ones, keeping the
  /// retry layer fully inert.
  int max_retries = 0;
  /// First-retry backoff; doubles per subsequent attempt of the same item,
  /// up to kMaxSpanSeconds. Negative and NaN values count as 0.
  double retry_backoff_seconds = 0.05;
};

/// One detection request. The model comes in one of two forms, and a scan
/// never copies it in either:
///  - a shared frozen network (`model`; submit() throws
///    std::invalid_argument unless it is frozen). The scan shares the
///    instance and holds a reference until it resolves. Every pass on a
///    frozen network writes nothing to it, so any number of scans — and the
///    caller's own detect() — may run on it at once; the caller must not
///    unfreeze, train or otherwise write to it while a scan holding it is
///    unresolved;
///  - a `model_ref` (zoo spec or checkpoint path), resolved through the
///    service's ModelStore inside the scan's FIRST STAGE — like probe_key:
///    a shed scan, or one cancelled while queued, never loads anything,
///    load failures are retryable stage faults, and N concurrent scans
///    naming the same ref share ONE resident instance (pinned while any of
///    them runs). Reports are byte-identical either way.
/// Exactly one of the two must be set. The service takes ownership of the
/// detector (its config drives the scan; the plan's closures borrow it for
/// the scan's lifetime).
struct ScanRequest {
  std::shared_ptr<const Network> model;
  /// Model by reference; see above. Set model XOR model_ref.
  std::optional<ModelRef> model_ref;
  DetectorPtr detector;
  /// The probe, by content address: resolved through the service's
  /// ProbeStore in the scan's first stage and shared with every request
  /// naming the same key. The scan reads exactly make_probe(spec,
  /// probe_size, seed). probe_size must be positive.
  ProbeKey probe_key;
  ScanOptions options;
};

namespace detail {
struct ScanState;
class ScanExecution;
}  // namespace detail

/// Future-like view of a submitted scan. Cheap to copy; all methods are
/// thread-safe. Outlives the service (a handle keeps its outcome alive).
class ScanHandle {
 public:
  /// An empty handle, for a slot filled by a later submit; its methods
  /// throw std::logic_error.
  ScanHandle() = default;

  [[nodiscard]] std::uint64_t id() const;
  /// Current status without blocking.
  [[nodiscard]] ScanStatus poll() const;
  /// Blocks until the scan reaches a terminal status; returns the outcome
  /// (kept alive by this handle). Never throws on scan failure — inspect
  /// outcome.status / outcome.error. A scan with a deadline is nudged when
  /// the waiter observes expiry, so wait() on a deadline-expired scan that
  /// is still QUEUED resolves kTimedOut promptly without the scan ever
  /// running a stage.
  const ScanOutcome& wait() const&;
  /// The same, on a temporary handle (`service.submit(request).wait()`):
  /// returns a copy, since nothing keeps the outcome alive past the end of
  /// the statement.
  ScanOutcome wait() &&;
  /// Requests cancellation. A scan still queued (not yet admitted to the
  /// scheduler) resolves to kCancelled IMMEDIATELY — its model reference is
  /// released, its queue slot freed, and it never runs a single stage.
  /// An admitted scan is cancelled cooperatively at stage boundaries.
  /// Returns true if the scan had not yet reached a terminal status — the
  /// eventual status is then kCancelled unless the scan beat the flag to
  /// completion. The service stays fully reusable.
  bool cancel() const;
  /// Blocks until the scan reaches a terminal status OR `seconds` elapse
  /// (clamped like a deadline), whichever comes first, and returns the
  /// CURRENT status either way — poll-with-timeout, never an error. Like
  /// wait(), a waiter observing deadline expiry nudges the scan toward
  /// kTimedOut.
  ScanStatus wait_for(double seconds) const;

 private:
  friend class DetectionService;
  explicit ScanHandle(std::shared_ptr<detail::ScanState> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::ScanState> state_;
};

struct DetectionServiceConfig {
  /// Workers of the shared scan pool. 0 sizes it like ThreadPool::global()
  /// (see ThreadPool's constructor).
  int scan_threads = 0;
  /// Scans ADMITTED to the global scheduler at once. Requests beyond the
  /// cap wait in the submission queue with ScanStatus::kQueued (their
  /// stages are not enqueued at all; shed_queue_depth bounds that queue).
  /// Admitted scans share the dispatcher crew fairly — this cap bounds how
  /// many scans hold live tasks, not parallelism.
  int max_concurrent_scans = 2;
  /// Dispatcher threads of the global class-job scheduler = stage items in
  /// flight at once. 0 (default) sizes the crew like max_concurrent_scans.
  /// A single dispatcher still interleaves rounds of every admitted scan
  /// fairly — that is the point of the global queue.
  int round_dispatchers = 0;
  /// Model-store eviction cap, forwarded to ModelStoreOptions::max_bytes
  /// (0 = unlimited): LRU by bytes, models pinned by in-flight ref-based
  /// scans are never evicted.
  std::int64_t model_store_max_bytes = 0;
  /// Queue-depth watermark: a submit that finds this many scans already
  /// QUEUED (admitted scans do not count) resolves kShed instead of
  /// queueing. 0 (default) = never shed on depth.
  std::int64_t shed_queue_depth = 0;
};

/// One consistent-enough snapshot of service liveness, assembled on demand
/// by DetectionService::health(). Counters are monotone totals since
/// construction; gauges are instantaneous. Cheap: two mutexes and a few
/// atomic loads — safe to poll from a monitoring loop.
struct ServiceHealth {
  // Queue gauges.
  std::int64_t queued_scans = 0;    // submitted, not yet admitted
  std::int64_t admitted_scans = 0;  // live in the round scheduler
  // Per-status counters (totals since construction).
  std::int64_t scans_submitted = 0;
  std::int64_t scans_completed = 0;
  std::int64_t scans_cancelled = 0;
  std::int64_t scans_failed = 0;
  std::int64_t scans_timed_out = 0;
  std::int64_t scans_shed = 0;
  // Retry layer.
  std::int64_t items_retried = 0;   // stage items re-enqueued after transient failures
  std::int64_t items_deferred = 0;  // currently parked in retry backoff
  // Memory budget (process-wide; see utils/memory_budget.h).
  std::int64_t budget_bytes = 0;
  std::int64_t budget_high_water_bytes = 0;
};

class DetectionService {
 public:
  explicit DetectionService(DetectionServiceConfig config = {});
  /// Cancels every queued and running scan and joins the dispatcher crew.
  /// Handles stay valid afterwards and resolve to kCancelled — except
  /// scans already past their deadline, which resolve to kTimedOut (the
  /// cause that expired first wins; shutdown must not mask a deadline).
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Enqueues a scan and returns immediately. The scan shares the request's
  /// frozen network; the probe_key and a model_ref are resolved through the
  /// ProbeStore/ModelStore inside the scan's FIRST STAGE — materialization
  /// and load failures are then retryable like any stage fault, and a shed
  /// scan, or one cancelled while queued, never materializes anything. Throws
  /// std::invalid_argument on a malformed request (model XOR model_ref
  /// violated, a model that is not frozen, null detector, probe_size <= 0);
  /// a probe whose class count differs from the model's fails the scan
  /// (kFailed) at its first stage, once the model is resolved. Never
  /// blocks: under one hold of the service lock it builds the scan and
  /// takes an admission slot, queues it, or — when the queue is at the
  /// shed_queue_depth watermark — sheds it, so a shed scan is kShed
  /// before submit() returns.
  ScanHandle submit(ScanRequest request);

  [[nodiscard]] ProbeStore& probe_store() noexcept { return probe_store_; }
  [[nodiscard]] ModelStore& model_store() noexcept { return model_store_; }

  /// Scans accepted by submit() since construction; the other per-status
  /// totals are in health().
  [[nodiscard]] std::int64_t scans_submitted() const noexcept { return submitted_.load(); }
  /// Stage items executed by the global scheduler since construction.
  [[nodiscard]] std::int64_t rounds_dispatched() const { return scheduler_.items_executed(); }

  /// Assembles a liveness snapshot; see ServiceHealth. Thread-safe, cheap,
  /// and side-effect-free — pollable from a monitoring loop.
  [[nodiscard]] ServiceHealth health() const;

 private:
  friend class detail::ScanExecution;

  /// Called by a ScanExecution reaching a terminal state: frees its
  /// admission slot, COLLECTS (not launches — the caller holds the
  /// execution's lock) queued executions that now fit under
  /// max_concurrent_scans into `launches`, publishes `outcome`, then removes
  /// the scan from live_. A waiter that observes the terminal status can
  /// therefore submit into the freed slot, and the destructor never misses
  /// a scan that is not yet terminal.
  void retire_scan(const std::shared_ptr<detail::ScanState>& state,
                   const detail::ScanExecution* exec, ScanOutcome outcome,
                   std::vector<std::shared_ptr<detail::ScanExecution>>& launches);

  DetectionServiceConfig config_;
  ThreadPool scan_pool_;
  ProbeStore probe_store_;
  ModelStore model_store_;

  mutable std::mutex mutex_;
  std::condition_variable idle_;  // signalled when live_ empties
  std::deque<std::shared_ptr<detail::ScanExecution>> queue_;  // not yet admitted
  std::vector<std::shared_ptr<detail::ScanState>> live_;      // queued or admitted
  std::int64_t admitted_ = 0;  // scans currently admitted to the scheduler
  bool shutting_down_ = false;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> timed_out_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> items_retried_{0};

  /// Declared last: destroyed first, joining the dispatchers before any
  /// state they might touch goes away. The destructor body additionally
  /// cancels all scans and waits for live_ to empty before members start
  /// destructing at all.
  RoundScheduler scheduler_;
};

}  // namespace usb
