// Weighted fair-share multi-queue for class-job rounds.
//
// The global cross-request scheduler behind DetectionService: every admitted
// scan registers one Job, and every schedulable stage of that scan (task
// construction, one refinement round of one class, a finalize) is enqueued
// as an opaque item on that job's FIFO. A small crew of dispatcher threads
// repeatedly picks the next item across ALL jobs by
//
//   1. highest priority (strict: a higher-priority job with pending items
//      always runs first),
//   2. then lowest virtual time (stride/fair-queueing: each job accrues
//      vtime = sum of its items' measured seconds divided by its weight, so
//      a K=43 scan and a K=4 scan at equal weight each get ~half the crew's
//      attention and the small scan finishes first),
//   3. then creation order (stable tiebreak).
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
// dispatcher and routed to the owning job's on_item_error handler
// (JobOptions), so one faulty request fails ONLY itself while the queue
// keeps draining every other job — the dispatcher crew never dies. A job
// armed without a handler gets its errors logged and dropped (the item is
// still charged to its vtime account).
//
// Timer queue: enqueue_after() parks an item with a not-before
// steady_clock time. Deferred items live in a side list; a dispatcher with
// no runnable work sleeps with wait_until on the earliest not-before (it
// never busy-waits and never holds a thread hostage for a sleeping item),
// and any dispatcher promotes every due item into its job's FIFO before
// picking. This is what the service's retry-with-backoff rides on.
// expedite() promotes a job's deferred items immediately (used on
// cancel/timeout so an aborting scan never waits out its own backoff), and
// shutdown promotes everything so the queue always drains.
//
// Heartbeats: each dispatcher publishes the item it is currently running
// (label, owning job's owner tag, start time) into a per-dispatcher slot —
// an inverted seqlock whose epoch is odd while an item is in flight. The
// service's health() samples the slots wait-free via sample_in_flight() to
// name the oldest in-flight item; a torn read is detected by re-checking
// the epoch and simply skipped (monitoring tolerates a missed sample).
#pragma once

#include <chrono>
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

  struct JobOptions {
    /// Strict priority: any pending item of a higher-priority job runs
    /// before every lower-priority item.
    int priority = 0;
    /// Fair-share weight among equal-priority jobs; vtime accrues at
    /// seconds / weight, so weight 2 receives twice the service rate.
    /// Values below 1e-9, and NaN, count as 1e-9.
    double weight = 1.0;
    /// Opaque owner tag published in heartbeats (the service uses the scan
    /// id) so a monitor can attribute an in-flight item to its request.
    std::uint64_t owner = 0;
    /// Routes an exception thrown by one of this job's items. Called on the
    /// dispatcher thread, outside the scheduler lock, after the item was
    /// charged to the job's vtime; must not throw. May enqueue further
    /// items or retire the job. Null logs-and-drops instead (the queue
    /// keeps draining either way — a throwing item never kills the crew).
    std::function<void(std::exception_ptr)> on_item_error;
  };

  /// A sampled in-flight item (see sample_in_flight).
  struct InFlightItem {
    const char* point = "";   // item label ("" when enqueued unlabeled)
    std::uint64_t owner = 0;  // owning job's JobOptions::owner tag
    double seconds = 0.0;     // time the item has been running
  };

  /// One request's item queue plus its scheduling account. Opaque to
  /// callers; create with create_job, feed with enqueue, detach with
  /// retire_job.
  class Job {
   private:
    friend class RoundScheduler;
    struct Item {
      std::function<void()> fn;
      const char* label = nullptr;  // static storage; published in heartbeats
    };
    std::deque<Item> items;
    std::function<void(std::exception_ptr)> on_item_error;
    int priority = 0;
    double weight = 1.0;
    double vtime = 0.0;
    std::uint64_t sequence = 0;  // creation order, the final tiebreak
    std::uint64_t owner = 0;     // heartbeat attribution tag
    std::int64_t started = 0;    // items ever picked by a dispatcher
    bool retired = false;
  };
  using JobPtr = std::shared_ptr<Job>;

  explicit RoundScheduler(Config config);
  /// Joins the dispatchers after draining every pending item — deferred
  /// items included: shutdown promotes them immediately, so an item parked
  /// behind a long backoff still runs (and can observe its scan's cancel
  /// flag) instead of wedging the drain. (Callers that want a fast
  /// shutdown drop items first via drop_queued_if_unstarted or let their
  /// items observe a cancel flag and return immediately.)
  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  [[nodiscard]] int workers() const noexcept { return static_cast<int>(dispatchers_.size()); }

  /// Registers a new job at the current vtime frontier.
  [[nodiscard]] JobPtr create_job(JobOptions options);

  /// Appends an item to the job's FIFO. Items of one job may still run
  /// concurrently on several dispatchers when enqueued while a previous
  /// item is in flight — per-job mutual exclusion, where needed, is the
  /// caller's (the service serializes per-class chains by construction:
  /// a class's next round is enqueued only by the completion of its
  /// previous one). `label` (static storage, e.g. a string literal) names
  /// the item in heartbeats; null is fine.
  void enqueue(const JobPtr& job, std::function<void()> item, const char* label = nullptr);

  /// Parks an item until `delay_seconds` from now (steady_clock, clamped by
  /// steady_span()), then promotes it onto the job's FIFO like a normal
  /// enqueue. Dispatchers sleeping on an empty queue wake via wait_until —
  /// no thread ever sleep-waits holding a slot. A non-positive or NaN delay
  /// enqueues directly.
  void enqueue_after(const JobPtr& job, double delay_seconds, std::function<void()> item,
                     const char* label = nullptr);

  /// Promotes every deferred item of `job` to runnable now. Used by abort
  /// paths so a scan never waits out its own retry backoff to observe its
  /// cancel flag.
  void expedite(const JobPtr& job);

  /// Atomically drops every queued item of `job` IF no item of it has ever
  /// been picked, retiring the job; returns the number of items dropped
  /// (deferred items included; their closures are destroyed unrun).
  /// Returns -1 without touching the queue when an item already started —
  /// the caller must then let the in-flight chain drain cooperatively.
  /// This is what resolves cancel-while-queued immediately: the race
  /// against a dispatcher picking the first item is arbitrated by the
  /// scheduler lock.
  [[nodiscard]] std::int64_t drop_queued_if_unstarted(const JobPtr& job);

  /// Detaches a finished job from the scheduler. Pending items (there
  /// should be none — the service retires only terminal scans) are
  /// dropped, deferred ones included.
  void retire_job(const JobPtr& job);

  [[nodiscard]] std::int64_t items_executed() const;

  /// Items currently parked in the timer queue (not yet runnable).
  [[nodiscard]] std::int64_t items_deferred() const;

  /// Appends a snapshot of every item currently running on a dispatcher.
  /// Wait-free with respect to the dispatchers (seqlock read per slot; a
  /// slot caught mid-transition is skipped). Ages are measured against
  /// steady_clock at the time of the call.
  void sample_in_flight(std::vector<InFlightItem>& out) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Deferred {
    Clock::time_point not_before;
    JobPtr job;
    Job::Item item;
  };

  // Inverted seqlock: epoch is odd exactly while an item runs, and the
  // payload fields are written before the odd transition and left
  // untouched until the even one — so a reader that sees one odd epoch
  // twice around its field reads has a consistent sample.
  struct HeartbeatSlot {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<const char*> point{nullptr};
    std::atomic<std::uint64_t> owner{0};
    std::atomic<std::int64_t> start_ns{0};
  };

  void dispatcher_loop(int slot);
  [[nodiscard]] JobPtr pick_locked();
  /// Moves every due deferred item onto its job's FIFO. Lock held.
  void promote_due_locked(Clock::time_point now);
  void promote_all_deferred_locked();

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::vector<JobPtr> jobs_;  // live jobs, creation order
  std::vector<Deferred> deferred_;
  double vclock_ = 0.0;  // min-vtime frontier; start point for new jobs
  std::uint64_t next_sequence_ = 0;
  std::int64_t items_executed_ = 0;
  bool shutting_down_ = false;
  std::unique_ptr<HeartbeatSlot[]> heartbeats_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace usb
