// RoundScheduler: the service's global cross-request fair-share queue.
//
// These tests pin the scheduling CONTRACT (per-job FIFO, fair-share
// alternation, strict priority, atomic queued-drop), not exact interleavings
// — which item runs when is explicitly allowed to vary. Single-dispatcher
// configurations make order observable; the stress test races four.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
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
  const auto job = scheduler.create_job({});
  for (int i = 0; i < 16; ++i) {
    scheduler.enqueue(job, [&trace, i] { trace.add('A', i); });
  }
  while (scheduler.items_executed() < 16) std::this_thread::yield();
  ASSERT_EQ(trace.events.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(trace.events[static_cast<std::size_t>(i)].second, i);
}

// The two fairness tests below measure wall-clock vtime accounting, which
// CPU oversubscription (the rest of the suite running in parallel) can skew
// arbitrarily: a dispatcher descheduled mid-item charges that item tens of
// milliseconds instead of 200µs, and the victim job's account leaps ahead.
// Each test therefore retries a few fresh schedulers and passes on the
// first fair outcome — a scheduler BUG (sequential draining, ignored
// weights) is deterministic and fails every attempt, while scheduling noise
// does not repeat across attempts.
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
    const auto holder = scheduler.create_job({});
    scheduler.enqueue(holder, [open] { open.wait(); });
    const auto job_a = scheduler.create_job({});
    const auto job_b = scheduler.create_job({});
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

TEST(RoundSchedulerTest, WeightSkewsServiceTowardHeavierJob) {
  int best = -1;
  for (int attempt = 0; attempt < kFairnessAttempts && best < 7; ++attempt) {
    RoundScheduler scheduler({/*workers=*/1, nullptr});
    Trace trace;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    const auto holder = scheduler.create_job({});
    scheduler.enqueue(holder, [open] { open.wait(); });
    RoundScheduler::JobOptions heavy_options;
    heavy_options.weight = 3.0;
    const auto heavy = scheduler.create_job(std::move(heavy_options));
    const auto light = scheduler.create_job({});
    for (int i = 0; i < 12; ++i) {
      scheduler.enqueue(heavy, [&trace, i] {
        trace.add('H', i);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      scheduler.enqueue(light, [&trace, i] {
        trace.add('L', i);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
    gate.set_value();
    while (scheduler.items_executed() < 25) std::this_thread::yield();

    // Weight 3 vs 1: of the first 12 completions, the heavy job should take
    // roughly three quarters. Demand at least 7 — far above alternation's 6,
    // comfortably below the exact 9 to absorb timing noise.
    int heavy_in_prefix = 0;
    for (int pos = 0; pos < 12; ++pos) {
      if (trace.events[static_cast<std::size_t>(pos)].first == 'H') ++heavy_in_prefix;
    }
    best = std::max(best, heavy_in_prefix);
  }
  EXPECT_GE(best, 7);
}

// A NaN weight floors like a non-positive one. With the tiny floor weight,
// job A's first item pushes its vtime far past B's, so B drains before A's
// remaining items, whatever the items cost. An unfloored NaN vtime loses
// every comparison, and A would drain first instead.
TEST(RoundSchedulerTest, NanWeightOrdersLikeWeightZero) {
  const auto order = [](double weight) {
    RoundScheduler scheduler({/*workers=*/1, nullptr});
    Trace trace;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    const auto holder = scheduler.create_job({});
    scheduler.enqueue(holder, [open] { open.wait(); });
    RoundScheduler::JobOptions a_options;
    a_options.weight = weight;
    const auto job_a = scheduler.create_job(a_options);
    const auto job_b = scheduler.create_job({});
    for (int i = 0; i < 10; ++i) {
      scheduler.enqueue(job_a, [&trace, i] { trace.add('A', i); });
      scheduler.enqueue(job_b, [&trace, i] { trace.add('B', i); });
    }
    gate.set_value();
    while (scheduler.items_executed() < 21) std::this_thread::yield();
    std::string tags;
    const std::lock_guard<std::mutex> lock(trace.mu);
    for (const auto& event : trace.events) tags += event.first;
    return tags;
  };
  EXPECT_EQ(order(0.0), "ABBBBBBBBBBAAAAAAAAA");
  EXPECT_EQ(order(std::numeric_limits<double>::quiet_NaN()), "ABBBBBBBBBBAAAAAAAAA");
}

TEST(RoundSchedulerTest, ThrowingItemRoutesToOwnerAndQueueKeepsDraining) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job({});
  scheduler.enqueue(holder, [open] { open.wait(); });

  std::atomic<int> errors{0};
  std::mutex message_mu;
  std::string message;
  RoundScheduler::JobOptions faulty_options;
  faulty_options.on_item_error = [&errors, &message_mu, &message](const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(message_mu);
      message = e.what();
    }
    errors.fetch_add(1);
  };
  const auto faulty = scheduler.create_job(std::move(faulty_options));
  const auto healthy = scheduler.create_job({});

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

TEST(RoundSchedulerTest, HigherPriorityJobPreemptsQueuedLowerPriorityItems) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  Trace trace;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job({});
  scheduler.enqueue(holder, [open] { open.wait(); });
  const auto low = scheduler.create_job({});
  RoundScheduler::JobOptions high_options;
  high_options.priority = 1;
  const auto high = scheduler.create_job(std::move(high_options));
  for (int i = 0; i < 8; ++i) scheduler.enqueue(low, [&trace, i] { trace.add('L', i); });
  for (int i = 0; i < 8; ++i) scheduler.enqueue(high, [&trace, i] { trace.add('H', i); });
  gate.set_value();
  while (scheduler.items_executed() < 17) std::this_thread::yield();

  // Strict priority: every high item before any low item.
  ASSERT_EQ(trace.events.size(), 16u);
  for (int pos = 0; pos < 8; ++pos) {
    EXPECT_EQ(trace.events[static_cast<std::size_t>(pos)].first, 'H') << "position " << pos;
  }
}

TEST(RoundSchedulerTest, DropQueuedIfUnstartedIsAtomicWithFirstPick) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job({});
  scheduler.enqueue(holder, [open] { open.wait(); });

  // Never started: all queued items drop, none runs.
  std::atomic<int> ran{0};
  const auto victim = scheduler.create_job({});
  for (int i = 0; i < 3; ++i) scheduler.enqueue(victim, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(scheduler.drop_queued_if_unstarted(victim), 3);
  // Retired: late enqueues are dropped too.
  scheduler.enqueue(victim, [&ran] { ran.fetch_add(1); });

  // Started: refuse, let the chain drain.
  const auto runner = scheduler.create_job({});
  scheduler.enqueue(runner, [&ran] { ran.fetch_add(1); });
  gate.set_value();
  while (scheduler.items_executed() < 2) std::this_thread::yield();
  EXPECT_EQ(scheduler.drop_queued_if_unstarted(runner), -1);
  EXPECT_EQ(ran.load(), 1);
}

// ---- Timer queue (enqueue_after / expedite) -----------------------------

TEST(RoundSchedulerTest, EnqueueAfterDefersItemUntilItsNotBeforeTime) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  const auto job = scheduler.create_job({});
  const auto enqueued_at = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> ran_after_ns{0};
  scheduler.enqueue_after(
      job, 0.05,
      [&ran_after_ns, enqueued_at] {
        ran_after_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - enqueued_at)
                               .count());
      },
      "test.deferred");
  // Parked, not runnable: the deferred gauge sees it, the execution
  // counter does not.
  EXPECT_EQ(scheduler.items_deferred(), 1);
  while (scheduler.items_executed() < 1) std::this_thread::yield();
  EXPECT_EQ(scheduler.items_deferred(), 0);
  // Never early: the timer is a NOT-BEFORE bound (lateness under load is
  // fine and not asserted).
  EXPECT_GE(ran_after_ns.load(), 45'000'000);
}

TEST(RoundSchedulerTest, ExpeditePromotesDeferredItemsImmediately) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  const auto job = scheduler.create_job({});
  std::atomic<int> ran{0};
  // Far future: without expedite this test would take half a minute.
  scheduler.enqueue_after(job, 30.0, [&ran] { ran.fetch_add(1); });
  scheduler.enqueue_after(job, 30.0, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(scheduler.items_deferred(), 2);
  scheduler.expedite(job);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.items_executed() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(scheduler.items_deferred(), 0);
}

TEST(RoundSchedulerTest, DropQueuedIfUnstartedDropsDeferredItemsToo) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  const auto holder = scheduler.create_job({});
  scheduler.enqueue(holder, [open] { open.wait(); });

  std::atomic<int> ran{0};
  const auto victim = scheduler.create_job({});
  scheduler.enqueue(victim, [&ran] { ran.fetch_add(1); });
  scheduler.enqueue_after(victim, 30.0, [&ran] { ran.fetch_add(1); });
  scheduler.enqueue_after(victim, 30.0, [&ran] { ran.fetch_add(1); });
  // All three drop — the two parked in the timer queue included — and
  // their closures are destroyed unrun.
  EXPECT_EQ(scheduler.drop_queued_if_unstarted(victim), 3);
  EXPECT_EQ(scheduler.items_deferred(), 0);
  gate.set_value();
  while (scheduler.items_executed() < 1) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 0);
}

// ---- Heartbeats (sample_in_flight) --------------------------------------

TEST(RoundSchedulerTest, SampleInFlightReportsRunningItemLabelAndOwner) {
  RoundScheduler scheduler({/*workers=*/1, nullptr});
  RoundScheduler::JobOptions job_options;
  job_options.owner = 42;
  const auto job = scheduler.create_job(std::move(job_options));

  std::promise<void> release;
  std::shared_future<void> hold = release.get_future().share();
  std::atomic<bool> started{false};
  const auto before_enqueue = std::chrono::steady_clock::now();
  scheduler.enqueue(
      job,
      [&started, hold] {
        started.store(true);
        hold.wait();
      },
      "test.inflight");
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::vector<RoundScheduler::InFlightItem> sample;
  scheduler.sample_in_flight(sample);
  const double since_enqueue =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before_enqueue).count();
  ASSERT_EQ(sample.size(), 1u);
  EXPECT_STREQ(sample[0].point, "test.inflight");
  EXPECT_EQ(sample[0].owner, 42u);
  // The age runs from the item's published start: at least the sleep above,
  // at most the time since it was enqueued.
  EXPECT_GE(sample[0].seconds, 0.02);
  EXPECT_LE(sample[0].seconds, since_enqueue);

  release.set_value();
  while (scheduler.items_executed() < 1) std::this_thread::yield();
  // The slot clears when the item returns.
  sample.clear();
  scheduler.sample_in_flight(sample);
  EXPECT_TRUE(sample.empty());
}

TEST(RoundSchedulerTest, StressManyJobsAcrossDispatchersRunEveryItemExactlyOnce) {
  RoundScheduler scheduler({/*workers=*/4, nullptr});
  constexpr int kJobs = 8;
  constexpr int kItems = 50;
  std::vector<RoundScheduler::JobPtr> jobs;
  std::vector<std::atomic<int>> counts(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    RoundScheduler::JobOptions job_options;
    job_options.priority = j % 2;
    job_options.weight = 1.0 + j;
    jobs.push_back(scheduler.create_job(std::move(job_options)));
  }
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
