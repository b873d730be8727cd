// Overload-resilience suite: transient-fault retries, queue-depth load
// shedding, the global memory budget, and the health() snapshot.
//
// The load-bearing guarantees under test:
//  - a stage that fails TRANSIENTLY (injected fault, simulated ENOMEM in
//    probe materialization) is retried with backoff and the scan that
//    eventually succeeds is byte-identical to Detector::detect(), with the
//    retry count in ScanOutcome::retries;
//  - retry exhaustion resolves kFailed, still reporting how many retries
//    were spent;
//  - a submit that would queue past the queue-depth watermark resolves
//    kShed before submit() returns, while the queued and admitted scans
//    complete untouched;
//  - ProbeStore entries and arena storage register with the process
//    MemoryBudget and release on eviction / scan retirement.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/usb.h"
#include "data/probe_store.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/models.h"
#include "report_identity.h"
#include "service/detection_service.h"
#include "utils/errors.h"
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

// ---- Transient-fault retries -------------------------------------------

// The tentpole pin: two injected transient faults at round stages are
// retried with backoff, the scan resolves kDone, the retry count is
// reported, and the report is byte-identical to the blocking detector —
// retrying re-runs the same stage against un-mutated inputs. The same holds
// for a fault at the round barrier's early-exit cutoff: the retry re-runs
// only the cutoff step.
TEST_F(OverloadTest, TransientRoundFaultsRetryToByteIdenticalSuccess) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 141};
  const Dataset probe = make_probe(spec, 48, 141);
  const auto victim = frozen_victim(spec.num_classes, 142);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = 2;  // exactly two throws, then the point goes quiet
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request = nc_request(victim, key);
  request.options.max_retries = 3;
  request.options.retry_backoff_seconds = 0.002;
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(service.health().items_retried, 2);
  expect_reports_identical(direct, outcome.report);

  ReverseOptConfig config = tiny_nc_config();
  config.early_exit.enabled = true;
  config.early_exit.round_steps = 2;
  config.early_exit.margin = 1e18;
  fault::FaultRegistry::instance().disarm_all();
  const DetectionReport early_direct = NeuralCleanse(config).detect(*victim, probe);

  fault::FaultSpec cutoff_fault;
  cutoff_fault.kind = fault::FaultSpec::Kind::kThrow;
  cutoff_fault.count = 1;
  fault::FaultRegistry::instance().arm("scan.cutoff", cutoff_fault);
  ScanRequest cutoff_request = nc_request(victim, key);
  cutoff_request.detector = std::make_unique<NeuralCleanse>(config);
  cutoff_request.options.max_retries = 3;
  cutoff_request.options.retry_backoff_seconds = 0.002;
  const ScanHandle cutoff_handle = service.submit(std::move(cutoff_request));
  const ScanOutcome& cutoff_outcome = cutoff_handle.wait();
  ASSERT_EQ(cutoff_outcome.status, ScanStatus::kDone) << cutoff_outcome.error;
  EXPECT_EQ(cutoff_outcome.retries, 1);
  expect_reports_identical(early_direct, cutoff_outcome.report);
}

// Simulated ENOMEM inside probe materialization: the store's failure is
// wrapped transient (the content address regenerates deterministically),
// the init stage retries, and the scan completes byte-identical.
TEST_F(OverloadTest, ProbeMaterializationEnomemRetriesAndSucceeds) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 143};
  const Dataset probe = make_probe(spec, 48, 143);
  const auto victim = frozen_victim(spec.num_classes, 144);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kEnomem;
  fault_spec.count = 1;
  fault::FaultRegistry::instance().arm("probe_store.materialize", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = key;
  request.options.max_retries = 1;
  request.options.retry_backoff_seconds = 0.002;
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
  EXPECT_EQ(outcome.retries, 1);
  expect_reports_identical(direct, outcome.report);
  // The failed materialization left no wedged entry; the retry populated it.
  EXPECT_EQ(service.probe_store().size(), 1);
}

// Retry exhaustion: a persistently-failing stage spends its per-item
// budget, then the scan resolves kFailed with the spent count on record.
TEST_F(OverloadTest, RetryExhaustionResolvesFailedWithRetryCount) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 145};
  const auto victim = frozen_victim(spec.num_classes, 146);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = -1;  // every hit, forever
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request = nc_request(victim, key);
  request.options.max_retries = 2;
  request.options.retry_backoff_seconds = 0.002;
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kFailed);
  // At least one item spent its full budget (concurrent class chains may
  // have banked retries of their own before the failure latched).
  EXPECT_GE(outcome.retries, 2);
  EXPECT_NE(outcome.error.find("scan.round"), std::string::npos) << outcome.error;
  EXPECT_NE(outcome.error.find("retries)"), std::string::npos) << outcome.error;
  EXPECT_EQ(service.health().scans_failed, 1);

  // A detector's own permanent error is NOT retried even with budget left.
  fault::FaultRegistry::instance().disarm_all();
  ScanRequest healthy = nc_request(victim, key);
  healthy.options.max_retries = 5;
  const ScanHandle ok = service.submit(std::move(healthy));
  EXPECT_EQ(ok.wait().status, ScanStatus::kDone);
  EXPECT_EQ(service.health().items_retried, outcome.retries);  // no silent retries
}

// With max_retries = 0 (the default), a transient fault fails immediately —
// the retry layer is inert unless armed, keeping default semantics.
TEST_F(OverloadTest, DefaultZeroRetriesFailsTransientFaultImmediately) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 147};
  const auto victim = frozen_victim(spec.num_classes, 148);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = 1;
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  const ScanHandle handle = service.submit(nc_request(victim, key));
  const ScanOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.status, ScanStatus::kFailed);
  EXPECT_EQ(outcome.retries, 0);
  EXPECT_EQ(service.health().items_retried, 0);
}

// A backoff too long for steady_clock is capped, not overflowed: the retry
// of a transiently-failed round waits in the timer queue, where cancel()
// expedites it, instead of wrapping into the past and running at once.
TEST_F(OverloadTest, HugeRetryBackoffIsCappedNotOverflowed) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 149};
  const auto victim = frozen_victim(spec.num_classes, 150);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = 1;
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request = nc_request(victim, key);
  request.options.max_retries = 1;
  request.options.retry_backoff_seconds = 1e300;
  const ScanHandle handle = service.submit(std::move(request));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.health().items_deferred == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.health().items_deferred, 1);
  // The other classes drain; the deferred retry keeps the scan open.
  EXPECT_EQ(handle.wait_for(0.2), ScanStatus::kRunning);
  EXPECT_EQ(service.health().items_deferred, 1);

  EXPECT_TRUE(handle.cancel());
  const ScanOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.status, ScanStatus::kCancelled);
  EXPECT_EQ(outcome.retries, 1);
  EXPECT_EQ(service.health().items_deferred, 0);
}

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

// ---- Health snapshot & error taxonomy ----------------------------------

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
  EXPECT_EQ(done.items_retried, 0);
  EXPECT_EQ(done.items_deferred, 0);
  EXPECT_GT(done.budget_high_water_bytes, 0);
}

TEST(OverloadErrors, TransientErrorClassificationAndToStringTotality) {
  const ScanError permanent("disk on fire", /*transient_failure=*/false);
  EXPECT_FALSE(permanent.transient);
  const TransientError transient("blip");
  EXPECT_TRUE(transient.transient);
  EXPECT_STREQ(transient.what(), "blip");

  EXPECT_EQ(to_string(ScanStatus::kShed), "shed");
}

}  // namespace
}  // namespace usb
