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
// floor keeps vtime strictly increasing so jobs alternate instead of
// resolving every pick by the creation-order tiebreak (which would starve
// the younger job).
constexpr double kMinItemSeconds = 20e-6;

}  // namespace

RoundScheduler::RoundScheduler(Config config) : config_(config) {
  const int workers = std::max(1, config_.workers);
  dispatchers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

RoundScheduler::~RoundScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

RoundScheduler::JobPtr RoundScheduler::create_job(
    std::function<void(std::exception_ptr)> on_item_error) {
  auto job = std::make_shared<Job>();
  job->on_item_error = std::move(on_item_error);
  const std::lock_guard<std::mutex> lock(mutex_);
  job->vtime = vclock_;
  jobs_.push_back(job);
  return job;
}

void RoundScheduler::enqueue(const JobPtr& job, std::function<void()> item) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (job->retired) return;  // late enqueue on a detached job: drop
    job->items.push_back(std::move(item));
  }
  work_available_.notify_one();
}

std::int64_t RoundScheduler::drop_queued_if_unstarted(const JobPtr& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job->started > 0) return -1;
  const auto dropped = static_cast<std::int64_t>(job->items.size());
  job->items.clear();
  job->retired = true;
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  return dropped;
}

void RoundScheduler::retire_job(const JobPtr& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  job->items.clear();
  job->retired = true;
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
}

std::int64_t RoundScheduler::items_executed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return items_executed_;
}

RoundScheduler::JobPtr RoundScheduler::pick_locked() {
  // jobs_ is in creation order and only a strictly lower vtime replaces
  // `best`, so the older job wins a tie.
  JobPtr best;
  for (const JobPtr& job : jobs_) {
    if (job->items.empty()) continue;
    if (best == nullptr || job->vtime < best->vtime) best = job;
  }
  return best;
}

void RoundScheduler::dispatcher_loop() {
  // Per-thread: every item this dispatcher runs executes inside the kernel
  // pool's worker context (see ThreadPool::WorkerContext).
  std::optional<ThreadPool::WorkerContext> context;
  if (config_.kernel_pool != nullptr) context.emplace(*config_.kernel_pool);

  for (;;) {
    std::function<void()> item;
    JobPtr job;  // shared ownership across the item: the job may be retired
                 // (and dropped from jobs_) by the item itself, e.g. a
                 // scan's last finalize — the account must outlive the run.
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        job = pick_locked();
        if (job != nullptr) break;
        if (shutting_down_) return;
        work_available_.wait(lock);
      }
      item = std::move(job->items.front());
      job->items.pop_front();
      ++job->started;
      // Advance the frontier to the picked (minimum eligible) vtime so jobs
      // created from now on start here, not at 0.
      vclock_ = std::max(vclock_, job->vtime);
    }

    const Timer timer;
    std::exception_ptr error;
    try {
      item();
    } catch (...) {
      // Fault isolation: the throw belongs to ONE job. Charge the item,
      // then hand the exception to that job's handler — the other jobs'
      // queues keep draining and this dispatcher stays alive.
      error = std::current_exception();
    }
    const double cost = timer.seconds() + kMinItemSeconds;

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job->vtime += cost;
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
