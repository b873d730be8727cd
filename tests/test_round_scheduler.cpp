// RoundScheduler: the service's global cross-request fair-share queue.
//
// These tests pin the scheduling CONTRACT (per-job FIFO, fair-share
// alternation, atomic queued-drop), not exact interleavings
// — which item runs when is explicitly allowed to vary. Single-dispatcher
// configurations make order observable; the stress test races four.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/round_scheduler.h"

namespace usb {
namespace {

/// Records (job tag, item index) completion order under a mutex.
struct Trace {
  std::mutex mu;
  std::vector<std::pair<char, int>> events;
  void add(char job, int index) {
    const std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(job, index);
  }
};

TEST(RoundSchedulerTest, RunsItemsOfOneJobInFifoOrder) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  Trace trace;
  const auto job = scheduler.create_job();
  for (int i = 0; i < 16; ++i) {
    scheduler.enqueue(job, [&trace, i] { trace.add('A', i); });
  }
  while (scheduler.items_executed() < 16) std::this_thread::yield();
  ASSERT_EQ(trace.events.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(trace.events[static_cast<std::size_t>(i)].second, i);
}

// The fairness test below measures wall-clock vtime accounting, which CPU
// oversubscription (the rest of the suite running in parallel) can skew
// arbitrarily: a dispatcher descheduled mid-item charges that item tens of
// milliseconds instead of 200µs, and the victim job's account leaps ahead.
// It therefore retries a few fresh schedulers and passes on the first fair
// outcome — a scheduler BUG (sequential draining) is deterministic and fails
// every attempt, while scheduling noise does not repeat across attempts.
constexpr int kFairnessAttempts = 5;

TEST(RoundSchedulerTest, EqualWeightJobsInterleaveInsteadOfDrainingSequentially) {
  int best = -1;
  for (int attempt = 0; attempt < kFairnessAttempts && best < 15; ++attempt) {
    RoundScheduler scheduler({/*workers=*/1, nullptr});
    Trace trace;
    // Gate the dispatcher so both jobs' items are queued before any runs:
    // otherwise job A would legitimately drain alone before B exists.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    const auto holder = scheduler.create_job();
    scheduler.enqueue(holder, [open] { open.wait(); });
    const auto job_a = scheduler.create_job();
    const auto job_b = scheduler.create_job();
    for (int i = 0; i < 10; ++i) {
      scheduler.enqueue(job_a, [&trace, i] {
        trace.add('A', i);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      scheduler.enqueue(job_b, [&trace, i] {
        trace.add('B', i);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
    gate.set_value();
    while (scheduler.items_executed() < 21) std::this_thread::yield();

    // Fair share: neither job's LAST item may land before the other job ran
    // most of its own — sequential draining (all A then all B) would put
    // A's last at position 10. Demand both lasts in the final quarter.
    int last_a = -1;
    int last_b = -1;
    for (int pos = 0; pos < static_cast<int>(trace.events.size()); ++pos) {
      if (trace.events[static_cast<std::size_t>(pos)].first == 'A') last_a = pos;
      if (trace.events[static_cast<std::size_t>(pos)].first == 'B') last_b = pos;
    }
    best = std::max(best, std::min(last_a, last_b));
  }
  EXPECT_GE(best, 15) << "one job drained long before the other, on every attempt";
}

TEST(RoundSchedulerTest, ThrowingItemRoutesToOwnerAndQueueKeepsDraining) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job();
  scheduler.enqueue(holder, [open] { open.wait(); });

  std::atomic<int> errors{0};
  std::mutex message_mu;
  std::string message;
  const auto faulty =
      scheduler.create_job([&errors, &message_mu, &message](const std::exception_ptr& error) {
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(message_mu);
          message = e.what();
        }
        errors.fetch_add(1);
      });
  const auto healthy = scheduler.create_job();

  std::atomic<int> faulty_ran{0};
  std::atomic<int> healthy_ran{0};
  scheduler.enqueue(faulty, [] { throw std::runtime_error("injected item failure"); });
  scheduler.enqueue(faulty, [&faulty_ran] { faulty_ran.fetch_add(1); });
  for (int i = 0; i < 4; ++i) {
    scheduler.enqueue(healthy, [&healthy_ran] { healthy_ran.fetch_add(1); });
  }
  gate.set_value();
  while (scheduler.items_executed() < 7) std::this_thread::yield();

  // The throw reached exactly the faulty job's handler; every other item —
  // including the faulty job's own LATER item — still ran.
  EXPECT_EQ(errors.load(), 1);
  {
    const std::lock_guard<std::mutex> lock(message_mu);
    EXPECT_EQ(message, "injected item failure");
  }
  EXPECT_EQ(faulty_ran.load(), 1);
  EXPECT_EQ(healthy_ran.load(), 4);

  // A handler-less job's throw is logged and dropped; the dispatcher
  // survives both shapes and keeps serving.
  scheduler.enqueue(healthy, [] { throw std::runtime_error("unrouted"); });
  scheduler.enqueue(healthy, [&healthy_ran] { healthy_ran.fetch_add(1); });
  while (scheduler.items_executed() < 9) std::this_thread::yield();
  EXPECT_EQ(healthy_ran.load(), 5);
  EXPECT_EQ(errors.load(), 1);
}

TEST(RoundSchedulerTest, DropQueuedIfUnstartedIsAtomicWithFirstPick) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job();
  scheduler.enqueue(holder, [open] { open.wait(); });

  // Never started: all queued items drop, none runs.
  std::atomic<int> ran{0};
  const auto victim = scheduler.create_job();
  for (int i = 0; i < 3; ++i) scheduler.enqueue(victim, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(scheduler.drop_queued_if_unstarted(victim), 3);
  // Retired: late enqueues are dropped too.
  scheduler.enqueue(victim, [&ran] { ran.fetch_add(1); });

  // Started: refuse, let the chain drain.
  const auto runner = scheduler.create_job();
  scheduler.enqueue(runner, [&ran] { ran.fetch_add(1); });
  gate.set_value();
  while (scheduler.items_executed() < 2) std::this_thread::yield();
  EXPECT_EQ(scheduler.drop_queued_if_unstarted(runner), -1);
  EXPECT_EQ(ran.load(), 1);
}

TEST(RoundSchedulerTest, StressManyJobsAcrossDispatchersRunEveryItemExactlyOnce) {
  RoundScheduler scheduler({/*workers=*/4, nullptr});
  constexpr int kJobs = 8;
  constexpr int kItems = 50;
  std::vector<RoundScheduler::JobPtr> jobs;
  std::vector<std::atomic<int>> counts(kJobs);
  for (int j = 0; j < kJobs; ++j) jobs.push_back(scheduler.create_job());
  for (int i = 0; i < kItems; ++i) {
    for (int j = 0; j < kJobs; ++j) {
      scheduler.enqueue(jobs[static_cast<std::size_t>(j)],
                        [&counts, j] { counts[static_cast<std::size_t>(j)].fetch_add(1); });
    }
  }
  while (scheduler.items_executed() < kJobs * kItems) std::this_thread::yield();
  EXPECT_EQ(scheduler.items_executed(), kJobs * kItems);
  for (int j = 0; j < kJobs; ++j) EXPECT_EQ(counts[static_cast<std::size_t>(j)].load(), kItems);
  for (const auto& job : jobs) scheduler.retire_job(job);
}

}  // namespace
}  // namespace usb
