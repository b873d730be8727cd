#include "service/detection_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "utils/errors.h"
#include "utils/fault_injection.h"
#include "utils/memory_budget.h"
#include "utils/timer.h"

namespace usb {

std::string to_string(ScanStatus status) {
  switch (status) {
    case ScanStatus::kQueued: return "queued";
    case ScanStatus::kRunning: return "running";
    case ScanStatus::kDone: return "done";
    case ScanStatus::kCancelled: return "cancelled";
    case ScanStatus::kFailed: return "failed";
    case ScanStatus::kTimedOut: return "timed_out";
    case ScanStatus::kShed: return "shed";
  }
  return "unknown";
}

namespace detail {

/// Shared between the submitting thread, the scan's execution, and any
/// number of ScanHandle copies. The request payload (model reference,
/// detector, probe) is released the moment the scan reaches a terminal
/// status; the outcome stays alive for as long as any handle does.
struct ScanState {
  std::uint64_t id = 0;

  // Request payload. Touched only by submit() (filling) and the execution's
  // stages (consuming + releasing) — never by handles. A model_ref and the
  // probe_key are resolved lazily by the scan's init stage (so a shed scan,
  // or one cancelled while queued, never loads or materializes anything,
  // and a failure there is a retryable stage fault).
  // The frozen network every class of the scan runs on: the request's own,
  // or, for a model_ref, an aliasing pointer into the ModelStore entry
  // (set by stage_init) that pins the entry while the scan holds it.
  std::shared_ptr<const Network> model;
  std::optional<ModelRef> model_ref;
  DetectorPtr detector;
  ProbeKey probe_key;
  std::shared_ptr<const ProbeData> stored_probe;  // resolved probe_key
  ScanOptions options;

  std::atomic<bool> cancel{false};

  // Deadline, fixed at submit() from ScanOptions::deadline_seconds.
  // Immutable after publication, so deadline_expired() needs no lock.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  [[nodiscard]] bool deadline_expired() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }

  mutable std::mutex mutex;
  mutable std::condition_variable done_cv;
  ScanOutcome outcome;  // outcome.status doubles as the live status
  bool terminal = false;

  /// The scan's execution, for cancel routing. Written once by submit()
  /// before the state is published; read under `mutex`; cleared by finish()
  /// (breaking the execution<->state ownership cycle).
  std::shared_ptr<ScanExecution> execution;

  void finish(ScanOutcome final_outcome) {
    // Drop the payload BEFORE publishing the terminal status: a long-lived
    // handle must not pin a model or a probe materialization, and a waiter
    // observing the terminal status must also observe the store entries
    // unpinned (evictable again). Safe unlocked — finish() runs exactly
    // once (terminal transitions are guarded by the execution's phase) and
    // no stage touches the payload once the last item resolved.
    model.reset();
    detector.reset();
    stored_probe.reset();
    std::shared_ptr<ScanExecution> exec;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      outcome = std::move(final_outcome);
      terminal = true;
      // Break the execution<->state ownership cycle; released outside the
      // lock (the execution calls finish() with its own lock held; a live
      // caller always holds another reference).
      exec = std::move(execution);
    }
    done_cv.notify_all();
  }
};

/// One admitted scan as discrete items on the service's global
/// RoundScheduler: an init item prepares the scan's StagedScan, then every
/// step of its step graph (scan_plan.h) runs as one item and posts the
/// steps it enables. Nothing ever blocks waiting for another item, so a
/// single dispatcher can interleave any number of scans. This class owns
/// only the request lifecycle: skipping items on deadline, cancel, or
/// failure; retries; fault scoping; the terminal status.
class ScanExecution : public std::enable_shared_from_this<ScanExecution> {
 public:
  ScanExecution(DetectionService& service, std::shared_ptr<ScanState> state)
      : service_(&service), state_(std::move(state)) {}

  /// Admits the scan: creates its scheduler job (at the current fair-share
  /// frontier), marks it kRunning, and posts the init stage. No-op if the
  /// scan was cancelled while still queued. A scan admitted PAST its
  /// deadline resolves kTimedOut right here, without ever creating a job or
  /// consuming a dispatcher — its slot goes straight to the next queued
  /// scan.
  void launch() {
    std::vector<std::shared_ptr<ScanExecution>> launches;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (phase_ != Phase::kQueued) return;
      if (state_->deadline_expired()) {
        phase_ = Phase::kTerminal;
        service_->timed_out_.fetch_add(1);
        service_->retire_scan(state_, this, ScanOutcome{ScanStatus::kTimedOut, {}, {}},
                              launches);
      } else {
        phase_ = Phase::kLaunched;
        {
          const std::lock_guard<std::mutex> state_lock(state_->mutex);
          state_->outcome.status = ScanStatus::kRunning;
        }
        // Defense in depth: run_stage already routes stage exceptions, so
        // only an escape from the completion path itself lands here — it
        // still fails ONLY this scan, never the dispatcher crew. Weak
        // capture: the execution holds job_ and the job holds this handler,
        // so a strong self here would be a shared_ptr cycle that leaks
        // every scan. The handler only fires from an item, and items
        // capture the execution strongly, so lock() cannot miss a live one.
        job_ = service_->scheduler_.create_job(
            [weak = weak_from_this()](const std::exception_ptr& error) {
              if (const std::shared_ptr<ScanExecution> self = weak.lock()) {
                self->on_item_error(error);
              }
            });
        outstanding_ = 1;
        service_->scheduler_.enqueue(
            job_,
            // The inner stage function captures `self` BY VALUE: a retry
            // copies it past this enqueued wrapper's lifetime.
            [self = shared_from_this()] { self->run_stage([self] { self->stage_init(); }, 0); });
      }
    }
    for (const auto& exec : launches) exec->launch();
  }

  /// Called with state_->cancel already set. Resolves a still-queued scan
  /// (or a launched one whose first item never started) immediately;
  /// otherwise the flag drains the in-flight chain cooperatively at the
  /// next item boundary. A cancelled scan already past its deadline
  /// resolves kTimedOut, not kCancelled — the deadline expired first, and
  /// shutdown must not mask it.
  void request_cancel() { request_abort(/*timeout=*/false); }

  /// Deadline nudge (from a waiter observing expiry): like request_cancel
  /// but a no-op unless the deadline really is expired, and it does NOT
  /// set the cancel flag — an in-flight chain keeps draining through the
  /// run_stage deadline check instead.
  void request_timeout() {
    if (!state_->deadline_expired()) return;
    request_abort(/*timeout=*/true);
  }

 private:
  enum class Phase { kQueued, kLaunched, kTerminal };

  /// The common immediate-resolution path behind request_cancel (timeout =
  /// false) and request_timeout (true). See request_cancel for semantics.
  void request_abort(bool timeout) {
    std::vector<std::shared_ptr<ScanExecution>> launches;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (phase_ == Phase::kTerminal) return;
      if (phase_ == Phase::kLaunched) {
        const std::int64_t dropped = service_->scheduler_.drop_queued_if_unstarted(job_);
        if (dropped < 0) {
          // A stage ran or is running: drain cooperatively. For a timeout
          // nudge, record the expiry so the chain resolves kTimedOut even
          // if it races a clock that has not been re-read yet. Retries
          // parked in backoff promote immediately — an aborting scan must
          // not wait out its own timer to observe the flag.
          if (timeout) timed_out_ = true;
          service_->scheduler_.expedite(job_);
          return;
        }
        outstanding_ -= dropped;  // the init item, dropped unrun
      }
      phase_ = Phase::kTerminal;
      ScanOutcome outcome;
      if (timeout || state_->deadline_expired()) {
        outcome.status = ScanStatus::kTimedOut;
        service_->timed_out_.fetch_add(1);
      } else {
        outcome.status = ScanStatus::kCancelled;
        service_->cancelled_.fetch_add(1);
      }
      service_->retire_scan(state_, this, std::move(outcome), launches);
    }
    for (const auto& exec : launches) exec->launch();
  }

  /// Every scheduler item: skip the stage if the scan is past its
  /// deadline, cancelled, or failed (the chain then drains), route
  /// exceptions into the outcome — retrying TRANSIENT ones while budget
  /// remains — and run the completion accounting. The whole item runs
  /// under a FaultScope tagged with the scan id, so injected faults scoped
  /// to one scan can never leak into a concurrent healthy one
  /// (tests/test_fault_injection.cpp).
  void run_stage(const std::function<void()>& stage, int attempt) {
    const fault::FaultScope fault_scope(state_->id);
    bool skip = false;
    if (state_->deadline_expired()) {
      const std::lock_guard<std::mutex> lock(mu_);
      timed_out_ = true;
      skip = true;
    }
    if (!skip) skip = state_->cancel.load(std::memory_order_relaxed);
    if (!skip) {
      const std::lock_guard<std::mutex> lock(mu_);
      skip = failed_ || timed_out_;
    }
    if (!skip) {
      try {
        stage();
      } catch (const std::exception& error) {
        if (!maybe_retry(stage, attempt, error)) mark_failed(error.what());
      } catch (...) {
        mark_failed("unknown scan failure");
      }
    }
    complete_item();
  }

  /// Transient classification: explicit (ScanError::transient, so detectors
  /// opt stages in via TransientError) plus the two implicit families the
  /// service trusts to be retryable — injected faults (the registry models
  /// infrastructure hiccups) and allocation failures (retried with backoff,
  /// since running scans may release memory in the meantime).
  [[nodiscard]] static bool is_transient_failure(const std::exception& error) {
    if (const auto* scan_error = dynamic_cast<const ScanError*>(&error)) {
      return scan_error->transient;
    }
    return dynamic_cast<const fault::InjectedFault*>(&error) != nullptr ||
           dynamic_cast<const std::bad_alloc*>(&error) != nullptr;
  }

  /// Re-enqueues a transiently-failed stage item with exponential backoff
  /// (base * 2^attempt) through the scheduler's timer queue, which clamps
  /// the delay with steady_span(). Returns false — caller records the
  /// failure — when the error is permanent, the per-item budget is spent, or
  /// the scan is already aborting. The replacement item is posted BEFORE
  /// this one completes (net outstanding unchanged), so the scan cannot
  /// transiently look finished.
  [[nodiscard]] bool maybe_retry(const std::function<void()>& stage, int attempt,
                                 const std::exception& error) {
    if (!is_transient_failure(error)) return false;
    if (attempt >= state_->options.max_retries) return false;
    if (state_->cancel.load(std::memory_order_relaxed) || state_->deadline_expired()) return false;
    const double backoff = state_->options.retry_backoff_seconds *
                           static_cast<double>(std::int64_t{1} << std::min(attempt, 30));
    const std::lock_guard<std::mutex> lock(mu_);
    if (phase_ == Phase::kTerminal || failed_ || timed_out_) return false;
    ++retries_;
    service_->items_retried_.fetch_add(1);
    ++outstanding_;
    service_->scheduler_.enqueue_after(
        job_, backoff,
        [self = shared_from_this(), stage, next = attempt + 1] { self->run_stage(stage, next); });
    return true;
  }

  /// RoundScheduler's route-to-owner handler: anything that escaped an
  /// item of this scan (run_stage catches stage exceptions, so this is the
  /// completion path's own failure) is classified exactly like a stage
  /// exception, then the item is completed — the throwing item never
  /// reached its own complete_item.
  void on_item_error(const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      mark_failed(e.what());
    } catch (...) {
      mark_failed("unknown scan failure");
    }
    complete_item();
  }

  /// Posts a stage as one scheduler item. Caller must hold mu_.
  void post_locked(std::function<void()> stage) {
    ++outstanding_;
    service_->scheduler_.enqueue(job_, [self = shared_from_this(), stage = std::move(stage)] {
      self->run_stage(stage, 0);
    });
  }

  void mark_failed(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!failed_) error_ = what;
    failed_ = true;
  }

  /// Resolves a store entry (a content-addressed probe or a ref-named
  /// model) NOW, not at submit(): a shed scan, or one cancelled while
  /// queued, never materializes anything, and the returned shared_ptr pins
  /// the entry until finish(). Unrecognized failures are wrapped TRANSIENT —
  /// regenerating from a deterministic key, or re-reading after a flaky
  /// filesystem read or an allocation failure under load, is exactly what
  /// the retry layer exists for; a truly corrupt checkpoint exhausts the
  /// budget and fails the scan with the loader's path-carrying message.
  template <typename Store, typename Key>
  static auto resolve(Store& store, const Key& key, const char* failure) {
    try {
      return store.get_or_create(key);
    } catch (const ScanError&) {
      throw;  // explicit classification wins (TransientError included)
    } catch (const fault::InjectedFault&) {
      throw;  // already classified transient by run_stage
    } catch (const std::exception& error) {
      throw TransientError(std::string(failure) + error.what());
    }
  }

  void stage_init() {
    if (state_->stored_probe == nullptr) {
      state_->stored_probe = resolve(service_->probe_store_, state_->probe_key,
                                     "probe materialization failed: ");
    }
    if (state_->model == nullptr) {
      std::shared_ptr<const ModelData> entry =
          resolve(service_->model_store_, *state_->model_ref, "model load failed: ");
      const Network* network = &entry->network;
      state_->model = std::shared_ptr<const Network>(std::move(entry), network);
    }
    // The detector's own plan, early exit included, with the service's
    // session state wired in. Neither addition has a numeric effect (cache
    // adoption is schedule-only; progress carries no data into the scan),
    // so the scan matches detect() byte for byte. Tensor kernels adopt
    // scan_pool_ through the dispatchers' WorkerContext.
    ScanPlan plan = state_->detector->plan();
    if (state_->options.progress) plan.options.progress = state_->options.progress;
    const Dataset& probe = state_->stored_probe->probe;
    if (plan.options.external_probe_cache == nullptr) {
      plan.options.external_probe_cache = &state_->stored_probe->cache;
    }
    // Every class reads the one shared network (state_->model outlives
    // staged_: complete_item resets staged_ before finish()).
    staged_.emplace(std::move(plan), *state_->model, probe);
    staged_->prepare();
    const std::vector<ScanStep> roots = staged_->start();
    const std::lock_guard<std::mutex> lock(mu_);
    post_steps_locked(roots);
  }

  /// One step of the scan's graph; the steps it enables post as new items.
  void run_step(const ScanStep& step) {
    const std::vector<ScanStep> next = staged_->run(step);
    const std::lock_guard<std::mutex> lock(mu_);
    post_steps_locked(next);
  }

  void post_steps_locked(const std::vector<ScanStep>& steps) {
    for (const ScanStep& step : steps) {
      post_locked([this, step] { run_step(step); });
    }
  }

  /// Item-completion accounting. The scan is terminal when its last
  /// outstanding item completes: a recorded failure -> kFailed; all K
  /// classes finalized -> kDone (completed work beats a deadline that
  /// nobody observed in time); a deadline expiry -> kTimedOut with the
  /// partial report; anything else (the cancel flag starved the chain) ->
  /// kCancelled.
  void complete_item() {
    std::vector<std::shared_ptr<ScanExecution>> launches;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ > 0 || phase_ == Phase::kTerminal) return;
      phase_ = Phase::kTerminal;
      ScanOutcome outcome;
      if (failed_) {
        outcome.status = ScanStatus::kFailed;
        outcome.error = retries_ > 0
                            ? error_ + " (after " + std::to_string(retries_) + " retries)"
                            : error_;
        service_->failed_.fetch_add(1);
      } else if (staged_.has_value() && staged_->finished()) {
        try {
          outcome.report = staged_->take_report();
          outcome.status = ScanStatus::kDone;
          service_->completed_.fetch_add(1);
        } catch (const std::exception& e) {
          // The reduction itself failed (e.g. an injected finish fault):
          // the scan must still resolve — a throw here would escape to the
          // scheduler and leave the handle waiting forever.
          outcome = ScanOutcome{};
          outcome.status = ScanStatus::kFailed;
          outcome.error = e.what();
          service_->failed_.fetch_add(1);
        }
      } else if (timed_out_ || state_->deadline_expired()) {
        outcome.status = ScanStatus::kTimedOut;
        // The partial report: whatever stages completed, with
        // per_class_state saying how far each class got. A scan that timed
        // out before stage_init has no staged scan and no report.
        if (staged_.has_value()) {
          try {
            outcome.report = staged_->take_report();
          } catch (const std::exception&) {
            outcome.report = DetectionReport{};
          }
        }
        service_->timed_out_.fetch_add(1);
      } else {
        outcome.status = ScanStatus::kCancelled;
        service_->cancelled_.fetch_add(1);
      }
      outcome.retries = retries_;
      // Release tasks and the borrowed model and probe-cache pointers BEFORE
      // finish() drops the model, detector and stored probe they point into.
      staged_.reset();
      service_->scheduler_.retire_job(job_);
      service_->retire_scan(state_, this, std::move(outcome), launches);
    }
    // Newly admitted scans launch outside mu_ (their launch() takes their
    // own lock and the scheduler's).
    for (const auto& exec : launches) exec->launch();
  }

  DetectionService* service_;
  std::shared_ptr<ScanState> state_;
  RoundScheduler::JobPtr job_;

  std::mutex mu_;
  Phase phase_ = Phase::kQueued;
  std::optional<StagedScan> staged_;
  std::int64_t outstanding_ = 0;  // items posted, not yet completed
  bool failed_ = false;
  bool timed_out_ = false;
  std::int64_t retries_ = 0;  // stage items re-enqueued after transient failures
  std::string error_;
};

}  // namespace detail

namespace {

using detail::ScanExecution;
using detail::ScanState;

const std::shared_ptr<ScanState>& require_state(const std::shared_ptr<ScanState>& state) {
  if (state == nullptr) throw std::logic_error("ScanHandle: empty handle");
  return state;
}

int resolve_dispatchers(const DetectionServiceConfig& config) {
  if (config.round_dispatchers > 0) return config.round_dispatchers;
  return std::max(1, config.max_concurrent_scans);
}

}  // namespace

std::uint64_t ScanHandle::id() const { return require_state(state_)->id; }

ScanStatus ScanHandle::poll() const {
  const auto& state = require_state(state_);
  const std::lock_guard<std::mutex> lock(state->mutex);
  return state->outcome.status;
}

ScanOutcome ScanHandle::wait() && { return std::as_const(*this).wait(); }

const ScanOutcome& ScanHandle::wait() const& {
  const auto& state = require_state(state_);
  std::unique_lock<std::mutex> lock(state->mutex);
  if (state->has_deadline) {
    state->done_cv.wait_until(lock, state->deadline, [&state] { return state->terminal; });
    if (!state->terminal) {
      // Deadline passed with the scan unresolved. Nudge it: a QUEUED scan
      // resolves kTimedOut right now (it would otherwise sit in the
      // submission queue untouched — no dispatcher ever looks at it); an
      // in-flight one resolves at its next stage boundary, which the
      // final wait below observes.
      std::shared_ptr<ScanExecution> execution = state->execution;
      lock.unlock();
      if (execution != nullptr) execution->request_timeout();
      lock.lock();
    }
  }
  state->done_cv.wait(lock, [&state] { return state->terminal; });
  return state->outcome;
}

ScanStatus ScanHandle::wait_for(double seconds) const {
  const auto& state = require_state(state_);
  const auto wait_deadline = std::chrono::steady_clock::now() + steady_span(seconds);
  std::unique_lock<std::mutex> lock(state->mutex);
  if (state->has_deadline) {
    // Same nudge as wait(): if the SCAN deadline lands inside our window
    // and passes unresolved, push a queued scan to kTimedOut instead of
    // reporting kQueued forever.
    state->done_cv.wait_until(lock, std::min(wait_deadline, state->deadline),
                              [&state] { return state->terminal; });
    if (!state->terminal && state->deadline_expired()) {
      std::shared_ptr<ScanExecution> execution = state->execution;
      lock.unlock();
      if (execution != nullptr) execution->request_timeout();
      lock.lock();
    }
  }
  state->done_cv.wait_until(lock, wait_deadline, [&state] { return state->terminal; });
  return state->outcome.status;
}

bool ScanHandle::cancel() const {
  const auto& state = require_state(state_);
  state->cancel.store(true, std::memory_order_relaxed);
  std::shared_ptr<ScanExecution> execution;
  {
    const std::lock_guard<std::mutex> lock(state->mutex);
    if (state->terminal) return false;
    execution = state->execution;
  }
  // Outside state->mutex: request_cancel takes the execution's own lock
  // (and may finish the scan, which re-takes state->mutex).
  if (execution != nullptr) execution->request_cancel();
  return true;
}

DetectionService::DetectionService(DetectionServiceConfig config)
    : config_(config),
      scan_pool_(config.scan_threads),
      model_store_(ModelStoreOptions{config.model_store_max_bytes}),
      scheduler_(RoundScheduler::Config{resolve_dispatchers(config), &scan_pool_}) {}

DetectionService::~DetectionService() {
  std::vector<std::shared_ptr<ScanState>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    snapshot.assign(live_.begin(), live_.end());
  }
  // Queued scans resolve to kCancelled immediately; admitted scans hit the
  // flag at their next stage boundary. Cancel OUTSIDE mutex_: request_cancel
  // re-enters the service through retire_scan.
  for (const auto& state : snapshot) {
    state->cancel.store(true, std::memory_order_relaxed);
    std::shared_ptr<ScanExecution> execution;
    {
      const std::lock_guard<std::mutex> lock(state->mutex);
      execution = state->execution;
    }
    if (execution != nullptr) execution->request_cancel();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return live_.empty(); });
  }
  // Members now destruct; scheduler_ (declared last) goes first, joining
  // the dispatchers while everything they can touch is still alive.
}

ScanHandle DetectionService::submit(ScanRequest request) {
  if ((request.model == nullptr) == !request.model_ref.has_value()) {
    throw std::invalid_argument("ScanRequest: set exactly one of model / model_ref");
  }
  if (request.model != nullptr) require_frozen(*request.model, "ScanRequest::model");
  if (request.model_ref.has_value() && !request.model_ref->valid()) {
    throw std::invalid_argument(
        "ScanRequest: model_ref must set exactly one of checkpoint_path / zoo spec");
  }
  if (request.detector == nullptr) throw std::invalid_argument("ScanRequest: null detector");
  if (request.probe_key.probe_size <= 0) {
    throw std::invalid_argument("ScanRequest: probe_size must be positive");
  }

  std::shared_ptr<ScanState> state;
  std::shared_ptr<ScanExecution> execution;
  bool launch_now = false;
  bool shed = false;
  {
    // One hold builds the scan and admits, queues or sheds it: nothing here
    // is expensive (the scan shares the request's network) and nothing
    // waits.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) throw std::runtime_error("DetectionService: submit after shutdown");
    state = std::make_shared<ScanState>();
    state->id = next_id_.fetch_add(1);
    state->model = std::move(request.model);
    state->model_ref = std::move(request.model_ref);  // resolved by the init stage
    state->detector = std::move(request.detector);
    state->probe_key = std::move(request.probe_key);  // resolved by the init stage
    state->options = std::move(request.options);
    if (state->options.deadline_seconds > 0) {
      state->has_deadline = true;
      state->deadline =
          std::chrono::steady_clock::now() + steady_span(state->options.deadline_seconds);
    }
    if (admitted_ < std::max(1, config_.max_concurrent_scans)) {
      ++admitted_;
      launch_now = true;
    }
    // Every queued scan has equal standing and the newest goes first, so
    // the depth watermark only ever sheds the newcomer: a scan that would
    // queue past it is never queued, and resolves below.
    shed = !launch_now && config_.shed_queue_depth > 0 &&
           static_cast<std::int64_t>(queue_.size()) >= config_.shed_queue_depth;
    if (!shed) {
      execution = std::make_shared<ScanExecution>(*this, state);
      state->execution = execution;  // pre-publication: no lock needed yet
      live_.push_back(state);
      if (!launch_now) queue_.push_back(execution);
    }
  }
  submitted_.fetch_add(1);
  if (shed) {
    shed_.fetch_add(1);
    state->finish(
        ScanOutcome{ScanStatus::kShed, {}, "shed under overload (queue-depth watermark)"});
  }
  if (launch_now) execution->launch();
  return ScanHandle(std::move(state));
}

void DetectionService::retire_scan(const std::shared_ptr<detail::ScanState>& state,
                                   const detail::ScanExecution* exec, ScanOutcome outcome,
                                   std::vector<std::shared_ptr<detail::ScanExecution>>& launches) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto queued = std::find_if(queue_.begin(), queue_.end(),
                                     [exec](const auto& entry) { return entry.get() == exec; });
    if (queued != queue_.end()) {
      // Cancelled before admission: remove it; no slot opened.
      queue_.erase(queued);
    } else {
      // Admitted (or collected for launch concurrently with a queued
      // cancel — the increment already happened either way): free the slot
      // and collect successors. The caller launches them outside all locks.
      --admitted_;
      const std::int64_t cap = std::max(1, config_.max_concurrent_scans);
      while (!shutting_down_ && admitted_ < cap && !queue_.empty()) {
        launches.push_back(queue_.front());
        queue_.pop_front();
        ++admitted_;
      }
    }
  }
  state->finish(std::move(outcome));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    live_.erase(std::find(live_.begin(), live_.end(), state));
    if (live_.empty()) idle_.notify_all();
  }
}

ServiceHealth DetectionService::health() const {
  ServiceHealth health;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    health.queued_scans = static_cast<std::int64_t>(queue_.size());
    health.admitted_scans = admitted_;
  }
  health.scans_submitted = submitted_.load();
  health.scans_completed = completed_.load();
  health.scans_cancelled = cancelled_.load();
  health.scans_failed = failed_.load();
  health.scans_timed_out = timed_out_.load();
  health.scans_shed = shed_.load();
  health.items_retried = items_retried_.load();
  health.items_deferred = scheduler_.items_deferred();
  const MemoryBudget& budget = MemoryBudget::process();
  health.budget_bytes = budget.bytes();
  health.budget_high_water_bytes = budget.high_water_bytes();
  return health;
}

}  // namespace usb
