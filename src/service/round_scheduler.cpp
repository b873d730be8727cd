#include "service/round_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "utils/timer.h"

namespace usb {
namespace {

// Floor on an item's charged cost. Real refinement rounds cost milliseconds
// and dominate it; for near-zero items (drained cancels, trivial tests) the
// floor keeps vtime strictly increasing so equal-weight jobs alternate
// instead of resolving every pick by the sequence tiebreak (which would
// starve the younger job).
constexpr double kMinItemSeconds = 20e-6;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RoundScheduler::RoundScheduler(Config config) : config_(config) {
  const int workers = std::max(1, config_.workers);
  heartbeats_ = std::make_unique<HeartbeatSlot[]>(static_cast<std::size_t>(workers));
  dispatchers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    dispatchers_.emplace_back([this, i] { dispatcher_loop(i); });
  }
}

RoundScheduler::~RoundScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    // Deferred items must still run (they hold completion bookkeeping for
    // their scans); promote them now rather than waiting out backoffs.
    promote_all_deferred_locked();
  }
  work_available_.notify_all();
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

RoundScheduler::JobPtr RoundScheduler::create_job(JobOptions options) {
  auto job = std::make_shared<Job>();
  job->priority = options.priority;
  // Non-positive and NaN weights floor alike: a NaN would make every vtime
  // comparison false and drain this job ahead of its equals.
  job->weight = options.weight > 1e-9 ? options.weight : 1e-9;
  job->owner = options.owner;
  job->on_item_error = std::move(options.on_item_error);
  const std::lock_guard<std::mutex> lock(mutex_);
  job->vtime = vclock_;
  job->sequence = next_sequence_++;
  jobs_.push_back(job);
  return job;
}

void RoundScheduler::enqueue(const JobPtr& job, std::function<void()> item, const char* label) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (job->retired) return;  // late enqueue on a detached job: drop
    job->items.push_back(Job::Item{std::move(item), label});
  }
  work_available_.notify_one();
}

void RoundScheduler::enqueue_after(const JobPtr& job, double delay_seconds,
                                   std::function<void()> item, const char* label) {
  if (!(delay_seconds > 0.0)) {
    enqueue(job, std::move(item), label);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (job->retired) return;
    if (shutting_down_) {
      // Drain mode: the item runs now (and observes its scan's flags)
      // instead of parking behind a timer nobody will honor.
      job->items.push_back(Job::Item{std::move(item), label});
    } else {
      const auto not_before = Clock::now() + steady_span(delay_seconds);
      deferred_.push_back(Deferred{not_before, job, Job::Item{std::move(item), label}});
    }
  }
  // Wake a sleeper either way: it recomputes the earliest not-before (or
  // finds the drained item runnable).
  work_available_.notify_one();
}

void RoundScheduler::expedite(const JobPtr& job) {
  bool promoted = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = deferred_.begin(); it != deferred_.end();) {
      if (it->job == job) {
        job->items.push_back(std::move(it->item));
        it = deferred_.erase(it);
        promoted = true;
      } else {
        ++it;
      }
    }
  }
  if (promoted) work_available_.notify_all();
}

std::int64_t RoundScheduler::drop_queued_if_unstarted(const JobPtr& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job->started > 0) return -1;
  auto dropped = static_cast<std::int64_t>(job->items.size());
  job->items.clear();
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (it->job == job) {
      ++dropped;
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
  job->retired = true;
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  return dropped;
}

void RoundScheduler::retire_job(const JobPtr& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  job->items.clear();
  deferred_.erase(std::remove_if(deferred_.begin(), deferred_.end(),
                                 [&](const Deferred& d) { return d.job == job; }),
                  deferred_.end());
  job->retired = true;
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
}

std::int64_t RoundScheduler::items_executed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return items_executed_;
}

std::int64_t RoundScheduler::items_deferred() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(deferred_.size());
}

void RoundScheduler::sample_in_flight(std::vector<InFlightItem>& out) const {
  const std::int64_t now_ns = steady_now_ns();
  const int workers = static_cast<int>(dispatchers_.size());
  for (int i = 0; i < workers; ++i) {
    const HeartbeatSlot& slot = heartbeats_[i];
    const std::uint64_t before = slot.epoch.load(std::memory_order_acquire);
    if ((before & 1) == 0) continue;  // idle
    InFlightItem item;
    const char* point = slot.point.load(std::memory_order_relaxed);
    item.point = point != nullptr ? point : "";
    item.owner = slot.owner.load(std::memory_order_relaxed);
    const std::int64_t start_ns = slot.start_ns.load(std::memory_order_relaxed);
    const std::uint64_t after = slot.epoch.load(std::memory_order_acquire);
    if (after != before) continue;  // torn sample (item changed): skip
    item.seconds = std::max(0.0, static_cast<double>(now_ns - start_ns) * 1e-9);
    out.push_back(item);
  }
}

RoundScheduler::JobPtr RoundScheduler::pick_locked() {
  JobPtr best;
  for (const JobPtr& job : jobs_) {
    if (job->items.empty()) continue;
    if (best == nullptr || job->priority > best->priority ||
        (job->priority == best->priority &&
         (job->vtime < best->vtime ||
          (job->vtime == best->vtime && job->sequence < best->sequence)))) {
      best = job;
    }
  }
  return best;
}

void RoundScheduler::promote_due_locked(Clock::time_point now) {
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (it->not_before <= now) {
      if (!it->job->retired) it->job->items.push_back(std::move(it->item));
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
}

void RoundScheduler::promote_all_deferred_locked() {
  for (Deferred& deferred : deferred_) {
    if (!deferred.job->retired) deferred.job->items.push_back(std::move(deferred.item));
  }
  deferred_.clear();
}

void RoundScheduler::dispatcher_loop(int slot_index) {
  // Per-thread: every item this dispatcher runs executes inside the kernel
  // pool's worker context (see ThreadPool::WorkerContext).
  std::optional<ThreadPool::WorkerContext> context;
  if (config_.kernel_pool != nullptr) context.emplace(*config_.kernel_pool);
  HeartbeatSlot& heartbeat = heartbeats_[slot_index];

  for (;;) {
    Job::Item item;
    JobPtr job;  // shared ownership across the item: the job may be retired
                 // (and dropped from jobs_) by the item itself, e.g. a
                 // scan's last finalize — the account must outlive the run.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        promote_due_locked(Clock::now());
        job = pick_locked();
        if (job != nullptr) break;
        if (shutting_down_) {
          if (deferred_.empty()) return;
          promote_all_deferred_locked();
          continue;
        }
        if (deferred_.empty()) {
          work_available_.wait(lock);
        } else {
          auto earliest = deferred_.front().not_before;
          for (const Deferred& deferred : deferred_) {
            earliest = std::min(earliest, deferred.not_before);
          }
          work_available_.wait_until(lock, earliest);
        }
      }
      item = std::move(job->items.front());
      job->items.pop_front();
      ++job->started;
      // Advance the frontier to the picked (minimum eligible) vtime so jobs
      // created from now on start here, not at 0.
      vclock_ = std::max(vclock_, job->vtime);
    }

    // Heartbeat: publish the item before running it (fields first, then the
    // odd epoch transition — see the seqlock note in the header).
    heartbeat.point.store(item.label, std::memory_order_relaxed);
    heartbeat.owner.store(job->owner, std::memory_order_relaxed);
    heartbeat.start_ns.store(steady_now_ns(), std::memory_order_relaxed);
    heartbeat.epoch.fetch_add(1, std::memory_order_release);

    const Timer timer;
    std::exception_ptr error;
    try {
      item.fn();
    } catch (...) {
      // Fault isolation: the throw belongs to ONE job. Charge the item,
      // then hand the exception to that job's handler — the other jobs'
      // queues keep draining and this dispatcher stays alive.
      error = std::current_exception();
    }
    const double cost = timer.seconds() + kMinItemSeconds;

    heartbeat.epoch.fetch_add(1, std::memory_order_release);

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job->vtime += cost / job->weight;
      ++items_executed_;
    }
    if (error != nullptr) {
      if (job->on_item_error) {
        job->on_item_error(error);
      } else {
        std::fprintf(stderr, "RoundScheduler: dropping exception from item of unhandled job\n");
      }
    }
    work_available_.notify_one();
  }
}

}  // namespace usb
