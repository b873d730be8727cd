// Fair-share multi-queue for class-job rounds.
//
// The global cross-request scheduler behind DetectionService: every admitted
// scan registers one Job, and every schedulable stage of that scan (task
// construction, one refinement round of one class, a finalize) is enqueued
// as an opaque item on that job's FIFO. A small crew of dispatcher threads
// repeatedly picks the next item across ALL jobs by
//
//   1. lowest virtual time (stride/fair-queueing: each job accrues
//      vtime = sum of its items' measured seconds, so a K=43 scan and a
//      K=4 scan each get ~half the crew's attention and the small scan
//      finishes first),
//   2. then creation order (stable tiebreak).
//
// A job created mid-flight starts at the scheduler's virtual clock (the
// minimum vtime frontier observed so far), so a newcomer is served
// immediately without being able to starve jobs that already spent time.
// Work-stealing falls out of the design: dispatchers have no affinity, so
// whichever thread frees up next takes the globally most-deserving item
// regardless of which request it belongs to.
//
// Items are scheduled work, not numeric policy: WHICH item runs when (and on
// which thread) is explicitly allowed to vary run to run. Determinism of the
// scan reports is owned by the items themselves (see detection_service.h) —
// the scheduler only promises per-job FIFO order and that every enqueued
// item eventually runs (or is dropped via drop_queued_if_unstarted before
// the job's first item ever ran).
//
// Items may throw: an exception escaping an item is caught by the
// dispatcher and routed to the owning job's error handler (create_job), so
// one faulty request fails ONLY itself while the queue keeps draining every
// other job — the dispatcher crew never dies. A job created without a
// handler gets its errors logged and dropped (the item is still charged to
// its vtime account).
//
// Every item is runnable the moment it is enqueued. A dispatcher with no
// runnable work sleeps until an enqueue or shutdown wakes it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "utils/thread_pool.h"

namespace usb {

class RoundScheduler {
 public:
  struct Config {
    /// Dispatcher threads = class-job items in flight at once.
    int workers = 1;
    /// Pool whose worker context every item adopts
    /// (ThreadPool::WorkerContext): nested tensor kernels spill onto this
    /// pool's idle workers exactly as they do inside a pool worker. Null
    /// runs items with the dispatcher thread's default context. Must
    /// outlive the scheduler.
    ThreadPool* kernel_pool = nullptr;
  };

  /// One request's item queue plus its scheduling account. Opaque to
  /// callers; create with create_job, feed with enqueue, detach with
  /// retire_job.
  class Job {
   private:
    friend class RoundScheduler;
    std::deque<std::function<void()>> items;
    std::function<void(std::exception_ptr)> on_item_error;
    double vtime = 0.0;
    std::int64_t started = 0;  // items ever picked by a dispatcher
    bool retired = false;
  };
  using JobPtr = std::shared_ptr<Job>;

  explicit RoundScheduler(Config config);
  /// Joins the dispatchers after draining every pending item. (Callers that
  /// want a fast shutdown drop items first via drop_queued_if_unstarted or
  /// let their items observe a cancel flag and return immediately.)
  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  /// Registers a new job at the current vtime frontier. `on_item_error`
  /// routes an exception thrown by one of the job's items: it is called on
  /// the dispatcher thread, outside the scheduler lock, after the item was
  /// charged to the job's vtime, and must not throw. It may enqueue further
  /// items or retire the job. Null logs-and-drops instead (the queue keeps
  /// draining either way — a throwing item never kills the crew).
  [[nodiscard]] JobPtr create_job(
      std::function<void(std::exception_ptr)> on_item_error = nullptr);

  /// Appends an item to the job's FIFO. Items of one job may still run
  /// concurrently on several dispatchers when enqueued while a previous
  /// item is in flight — per-job mutual exclusion, where needed, is the
  /// caller's (the service serializes per-class chains by construction:
  /// a class's next round is enqueued only by the completion of its
  /// previous one).
  void enqueue(const JobPtr& job, std::function<void()> item);

  /// Atomically drops every queued item of `job` IF no item of it has ever
  /// been picked, retiring the job; returns the number of items dropped
  /// (their closures are destroyed unrun).
  /// Returns -1 without touching the queue when an item already started —
  /// the caller must then let the in-flight chain drain cooperatively.
  /// This is what resolves cancel-while-queued immediately: the race
  /// against a dispatcher picking the first item is arbitrated by the
  /// scheduler lock.
  [[nodiscard]] std::int64_t drop_queued_if_unstarted(const JobPtr& job);

  /// Detaches a finished job from the scheduler. Pending items (there
  /// should be none — the service retires only terminal scans) are
  /// dropped.
  void retire_job(const JobPtr& job);

  [[nodiscard]] std::int64_t items_executed() const;

 private:
  void dispatcher_loop();
  [[nodiscard]] JobPtr pick_locked();

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::vector<JobPtr> jobs_;  // live jobs, creation order
  double vclock_ = 0.0;  // min-vtime frontier; start point for new jobs
  std::int64_t items_executed_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> dispatchers_;
};

}  // namespace usb
