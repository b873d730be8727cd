// Overload-resilience suite: queue-depth load shedding, the global memory
// budget, and the health() snapshot. (A faulted stage fails its scan at
// once; tests/test_fault_injection.cpp pins that.)
//
// The load-bearing guarantees under test:
//  - a submit that would queue past the queue-depth watermark resolves
//    kShed before submit() returns, while the queued and admitted scans
//    complete untouched;
//  - ProbeStore entries and arena storage register with the process
//    MemoryBudget and release on eviction / scan retirement.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "data/probe_store.h"
#include "defenses/neural_cleanse.h"
#include "nn/models.h"
#include "service/detection_service.h"
#include "utils/fault_injection.h"
#include "utils/memory_budget.h"

namespace usb {
namespace {

DatasetSpec tiny_spec(std::int64_t num_classes = 6) {
  DatasetSpec spec;
  spec.name = "overload-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = num_classes;
  return spec;
}

ReverseOptConfig tiny_nc_config(std::int64_t steps = 6) {
  ReverseOptConfig config;
  config.steps = steps;
  return config;
}

DetectionServiceConfig service_config(int scan_threads, int executors = 2) {
  DetectionServiceConfig config;
  config.scan_threads = scan_threads;
  config.max_concurrent_scans = executors;
  return config;
}

/// A frozen 16x16 BasicCnn victim, shared by every scan a test submits.
std::shared_ptr<Network> frozen_victim(std::int64_t num_classes, std::uint64_t seed) {
  auto victim =
      std::make_shared<Network>(make_network(Architecture::kBasicCnn, 1, 16, num_classes, seed));
  victim->freeze();
  return victim;
}

ScanRequest nc_request(std::shared_ptr<const Network> model, const ProbeKey& key,
                       std::int64_t steps = 6) {
  ScanRequest request;
  request.model = std::move(model);
  request.probe_key = key;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(steps));
  return request;
}

// The registry is process-global; every test starts and ends disarmed.
class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { fault::FaultRegistry::instance().disarm_all(); }
};

// ---- Queue-depth load shedding -----------------------------------------

TEST_F(OverloadTest, DepthWatermarkShedsTheNewcomerBeforeSubmitReturns) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 151};
  const auto victim = frozen_victim(spec.num_classes, 152);

  // The blocker (scan id 1) holds the single admission slot: every one of
  // its rounds sleeps, so the scans below all sit queued while we assert.
  fault::FaultSpec delay;
  delay.kind = fault::FaultSpec::Kind::kDelay;
  delay.delay_seconds = 0.05;
  delay.count = -1;
  delay.scope = 1;
  fault::FaultRegistry::instance().arm("scan.round", delay);

  DetectionServiceConfig config = service_config(/*scan_threads=*/1, /*executors=*/1);
  config.shed_queue_depth = 2;
  DetectionService service(config);
  const auto submit = [&] { return service.submit(nc_request(victim, key)); };
  const ScanHandle blocker = service.submit(nc_request(victim, key, /*steps=*/40));
  const ScanHandle first = submit();
  const ScanHandle second = submit();
  // A third queued scan would breach depth 2: the newcomer is shed
  // synchronously, before submit() returns, and the queue is untouched.
  const ScanHandle newcomer = submit();
  EXPECT_EQ(newcomer.poll(), ScanStatus::kShed);
  EXPECT_NE(newcomer.wait().error.find("shed"), std::string::npos);
  EXPECT_EQ(first.poll(), ScanStatus::kQueued);
  EXPECT_EQ(second.poll(), ScanStatus::kQueued);
  EXPECT_EQ(service.health().scans_shed, 1);
  EXPECT_EQ(service.health().queued_scans, 2);

  // A cancel frees a queue slot: the next submit queues instead of being
  // shed, and the one after it is shed again.
  EXPECT_TRUE(second.cancel());
  const ScanHandle replacement = submit();
  EXPECT_EQ(replacement.poll(), ScanStatus::kQueued);
  const ScanHandle late = submit();
  EXPECT_EQ(late.poll(), ScanStatus::kShed);
  EXPECT_EQ(service.health().scans_shed, 2);

  // The queued scans complete once the blocker stops hogging the slot.
  fault::FaultRegistry::instance().disarm_all();
  blocker.cancel();
  EXPECT_EQ(first.wait().status, ScanStatus::kDone);
  EXPECT_EQ(replacement.wait().status, ScanStatus::kDone);
  EXPECT_EQ(second.wait().status, ScanStatus::kCancelled);
  EXPECT_EQ(service.health().scans_shed, 2);  // admitted scans were never shed
}

// ---- Global memory budget ----------------------------------------------

TEST(MemoryBudgetTest, ProbeStoreRegistersEvictsAndReleases) {
  auto& budget = MemoryBudget::process();
  const std::int64_t before = budget.bytes(MemoryBudget::Category::kProbeData);

  const ProbeKey key_a{tiny_spec(), 48, 161};
  const ProbeKey key_b{tiny_spec(), 48, 162};
  std::int64_t bytes_a = 0;
  {
    ProbeStore sized;
    bytes_a = sized.get_or_create(key_a)->bytes();
    sized.clear();
    EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData), before);

    ProbeStore capped(ProbeStoreOptions{bytes_a});  // exactly one resident entry
    {
      const auto a = capped.get_or_create(key_a);
      EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData) - before, a->bytes());
    }
    // a is unpinned now; b's arrival evicts it and the budget follows.
    const auto b = capped.get_or_create(key_b);
    EXPECT_EQ(capped.evictions(), 1);
    EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData) - before, b->bytes());
  }
  // Store destruction releases its resident bytes.
  EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData), before);
}

TEST(MemoryBudgetTest, ScanLifecycleReturnsArenaBytesToBaseline) {
  auto& budget = MemoryBudget::process();
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 163};
  const auto victim = frozen_victim(4, 164);

  const std::int64_t arenas_before = budget.bytes(MemoryBudget::Category::kArenas);
  {
    DetectionServiceConfig config;
    config.scan_threads = 1;
    config.max_concurrent_scans = 1;
    DetectionService service(config);
    ScanRequest request;
    request.model = victim;
    request.probe_key = key;
    request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
    const ScanHandle handle = service.submit(std::move(request));
    ASSERT_EQ(handle.wait().status, ScanStatus::kDone);
    // Terminal resolution released the refinement arenas BEFORE the waiter
    // woke.
    EXPECT_EQ(budget.bytes(MemoryBudget::Category::kArenas), arenas_before);
    // The scan's peak footprint is on the high-water record: at least its
    // probe, which the service's store keeps resident, was registered
    // (process-wide high water — monotone, so >= this scan's peak).
    const std::int64_t probe_bytes = service.probe_store().bytes_resident();
    EXPECT_GT(probe_bytes, 0);
    EXPECT_GE(budget.high_water_bytes(), probe_bytes);
  }
}

// ---- Health snapshot ---------------------------------------------------

TEST_F(OverloadTest, HealthSnapshotTracksCountersAndBudget) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 181};
  const auto victim = frozen_victim(4, 182);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
  const ServiceHealth idle = service.health();
  EXPECT_EQ(idle.queued_scans, 0);
  EXPECT_EQ(idle.admitted_scans, 0);

  const ScanHandle handle = service.submit(nc_request(victim, key));
  ASSERT_EQ(handle.wait().status, ScanStatus::kDone);
  const ServiceHealth done = service.health();
  EXPECT_EQ(done.scans_submitted, 1);
  EXPECT_EQ(done.scans_completed, 1);
  EXPECT_EQ(done.scans_shed, 0);
  EXPECT_GT(done.budget_high_water_bytes, 0);
}

}  // namespace
}  // namespace usb
