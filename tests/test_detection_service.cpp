// DetectionService: the session/request API over the scan engine.
//
// The load-bearing guarantees under test:
//  - submit() with default options is byte-for-byte Detector::detect() on
//    the same (model, probe, config) — for any service pool size, with the
//    probe resolved through the ProbeStore, and with early exit on in the
//    detector's config;
//  - ScanHandle::cancel() mid-scan resolves the handle to kCancelled and
//    leaves the service fully reusable (a resubmitted identical request
//    completes and is bit-identical to detect());
//  - the ProbeStore is content-addressed: every request naming the same
//    (spec, size, seed) shares one materialization;
//  - a scan shares the request's frozen network, never a copy: each queued
//    scan holds one reference until it resolves, and the caller's own
//    detect() may run on the instance meanwhile;
//  - overlapping scans on one service pool do not perturb each other's
//    reports (the ThreadSanitizer CI job additionally races these paths);
//  - a scan's arena bytes do not grow with its class count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "exp/model_zoo.h"
#include "nn/models.h"
#include "report_identity.h"
#include "service/detection_service.h"
#include "stage_arena_bytes.h"
#include "utils/fault_injection.h"
#include "utils/memory_budget.h"

namespace usb {
namespace {

DatasetSpec tiny_spec(std::int64_t num_classes = 6) {
  DatasetSpec spec;
  spec.name = "detection-service-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = num_classes;
  return spec;
}

UsbConfig tiny_usb_config() {
  UsbConfig config;
  config.uap.max_passes = 1;
  config.uap.craft_size = 32;
  config.uap.batch_size = 16;
  config.refine_steps = 4;
  config.batch_size = 8;
  return config;
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

/// A frozen 16x16 single-channel victim, shared by every scan a test
/// submits of it and by the test's own detect() references.
std::shared_ptr<Network> frozen_victim(Architecture arch, std::int64_t num_classes,
                                       std::uint64_t seed) {
  auto victim = std::make_shared<Network>(make_network(arch, 1, 16, num_classes, seed));
  victim->freeze();
  return victim;
}

}  // namespace

// The acceptance-criteria pin: default-options submit() == detect() byte
// for byte, across service pool sizes, with detect() run on the store's
// materialization of the request's probe key.
TEST(DetectionService, DefaultSubmitMatchesDetectByteForByte) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 81};
  const Dataset probe = make_probe(spec, 48, 81);
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 82);

  UsbDetector reference(tiny_usb_config());
  const DetectionReport direct = reference.detect(*victim, probe);

  for (const int threads : {1, 4}) {
    DetectionService service(service_config(threads));

    ScanRequest by_key;
    by_key.model = victim;
    by_key.detector = std::make_unique<UsbDetector>(tiny_usb_config());
    by_key.probe_key = key;
    const ScanHandle key_handle = service.submit(std::move(by_key));

    const ScanOutcome& from_key = key_handle.wait();
    ASSERT_EQ(from_key.status, ScanStatus::kDone) << from_key.error;
    expect_reports_identical(direct, from_key.report);
    EXPECT_GT(from_key.report.wall_seconds, 0.0);
    EXPECT_EQ(key_handle.poll(), ScanStatus::kDone);
  }
}

// Same pin with early exit on in the detector's config, the one place it
// is set: the service runs the round-barrier schedule and must match
// detect() at 1 and 4 scan threads.
TEST(DetectionService, EarlyExitSubmitMatchesDetectAcrossThreadCounts) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 83};
  const Dataset probe = generate_dataset(spec, 48, 83);
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 84);

  UsbConfig config = tiny_usb_config();
  config.refine_steps = 8;
  config.early_exit.enabled = true;
  config.early_exit.round_steps = 2;
  config.early_exit.margin = 0.25;
  const DetectionReport direct = UsbDetector(config).detect(*victim, probe);

  for (const int threads : {1, 4}) {
    DetectionService service(service_config(threads));
    ScanRequest request;
    request.model = victim;
    request.detector = std::make_unique<UsbDetector>(config);
    request.probe_key = key;
    const ScanHandle handle = service.submit(std::move(request));
    const ScanOutcome& outcome = handle.wait();
    ASSERT_EQ(outcome.status, ScanStatus::kDone) << "threads " << threads << ": " << outcome.error;
    expect_reports_identical(direct, outcome.report);
  }
}

// Round-barrier stress: with margin 0 classes retire at nearly every
// barrier, so the finalize steps of classes retired at one barrier run on
// four dispatchers while the next barrier's cutoff is taken. The cutoff
// reads only recorded statistics, never a task being finalized; every
// report must stay byte-identical to detect(). The sanitizer jobs race
// exactly this load.
TEST(DetectionService, RoundBarrierCutoffStressMatchesDetect) {
  const DatasetSpec spec = tiny_spec(10);
  const ProbeKey key{spec, 48, 87};
  const Dataset probe = make_probe(spec, 48, 87);
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 88);

  ReverseOptConfig config = tiny_nc_config(12);
  config.early_exit.enabled = true;
  config.early_exit.round_steps = 1;
  config.early_exit.margin = 0.0;
  const DetectionReport direct = NeuralCleanse(config).detect(*victim, probe);

  DetectionServiceConfig service_cfg = service_config(/*scan_threads=*/4, /*executors=*/1);
  service_cfg.round_dispatchers = 4;
  DetectionService service(service_cfg);
  std::vector<ScanHandle> handles;
  for (int i = 0; i < 20; ++i) {
    ScanRequest request;
    request.model = victim;
    request.probe_key = key;
    request.detector = std::make_unique<NeuralCleanse>(config);
    handles.push_back(service.submit(std::move(request)));
  }
  for (const ScanHandle& handle : handles) {
    const ScanOutcome& outcome = handle.wait();
    ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
    expect_reports_identical(direct, outcome.report);
  }
}

// cancel() mid-scan: the progress callback blocks the scan after its first
// finalized class until the handle exists, cancels through it, and the scan
// must resolve to kCancelled at the next class boundary. The service then
// runs a resubmitted identical request to completion, bit-identical to
// detect() — cancellation leaves no residue.
TEST(DetectionService, CancelMidScanLeavesServiceReusable) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 85};
  const Dataset probe = generate_dataset(spec, 48, 85);
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 86);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));

  std::optional<ScanHandle> handle;
  std::promise<void> handle_ready;
  std::shared_future<void> ready(handle_ready.get_future());
  std::atomic<bool> cancelled{false};

  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = key;
  request.options.progress = [&](std::int64_t /*target_class*/, ClassScanEvent event,
                                 double /*mask_l1*/) {
    if (event != ClassScanEvent::kFinalized) return;
    ready.wait();  // the main thread owns the handle before we cancel
    if (!cancelled.exchange(true)) (void)handle->cancel();
  };
  handle = service.submit(std::move(request));
  handle_ready.set_value();

  const ScanOutcome& outcome = handle->wait();
  EXPECT_EQ(outcome.status, ScanStatus::kCancelled);
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(service.health().scans_cancelled, 1);
  EXPECT_FALSE(handle->cancel());  // already terminal

  // Reusability: the identical request (default options) completes and is
  // bit-identical to the blocking path.
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);
  ScanRequest again;
  again.model = victim;
  again.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  again.probe_key = key;
  const ScanHandle rerun_handle = service.submit(std::move(again));
  const ScanOutcome& rerun = rerun_handle.wait();
  ASSERT_EQ(rerun.status, ScanStatus::kDone) << rerun.error;
  expect_reports_identical(direct, rerun.report);
  EXPECT_EQ(service.health().scans_completed, 1);
}

// Cancelling a scan that is still queued (single executor busy elsewhere)
// resolves it without running a single class job.
TEST(DetectionService, CancelWhileQueuedNeverRuns) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 87};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 88);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));

  // Occupy the only executor long enough to cancel the second request while
  // it is still queued (steps are generous; cancel happens immediately).
  ScanRequest busy;
  busy.model = victim;
  busy.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/30));
  busy.probe_key = key;
  const ScanHandle busy_handle = service.submit(std::move(busy));

  std::atomic<std::int64_t> victim_classes{0};
  ScanRequest queued;
  queued.model = victim;
  queued.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  queued.probe_key = key;
  queued.options.progress = [&victim_classes](std::int64_t, ClassScanEvent, double) {
    victim_classes.fetch_add(1);
  };
  const ScanHandle queued_handle = service.submit(std::move(queued));
  (void)queued_handle.cancel();

  EXPECT_EQ(queued_handle.wait().status, ScanStatus::kCancelled);
  EXPECT_EQ(victim_classes.load(), 0);
  EXPECT_EQ(busy_handle.wait().status, ScanStatus::kDone);
}

// Content addressing: requests naming the same (spec, size, seed) share one
// materialization; a different seed is a different address.
TEST(DetectionService, ProbeStoreSharesAcrossRequests) {
  const DatasetSpec spec = tiny_spec(4);
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 90);

  DetectionService service(service_config(/*scan_threads=*/1));
  const ProbeKey key_a{spec, 32, 91};
  const ProbeKey key_b{spec, 32, 92};
  EXPECT_NE(key_a.address(), key_b.address());

  std::vector<ScanHandle> handles;
  for (const ProbeKey& key : {key_a, key_a, key_b}) {
    ScanRequest request;
    request.model = victim;
    request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/3));
    request.probe_key = key;
    handles.push_back(service.submit(std::move(request)));
  }
  for (const ScanHandle& handle : handles) {
    EXPECT_EQ(handle.wait().status, ScanStatus::kDone);
  }
  EXPECT_EQ(service.probe_store().size(), 2);
  EXPECT_EQ(service.probe_store().misses(), 2);
  EXPECT_EQ(service.probe_store().hits(), 1);

  // Identical resubmissions are bit-identical (determinism is per-request
  // state, never shared scan state).
  expect_reports_identical(handles[0].wait().report, handles[1].wait().report);
}

// Two scans overlapping on ONE service pool must produce exactly the
// reports their isolated runs produce.
TEST(DetectionService, OverlappingScansDoNotPerturbEachOther) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 93};
  const Dataset probe = generate_dataset(spec, 32, 93);
  const auto victim_a = frozen_victim(Architecture::kBasicCnn, 4, 94);
  const auto victim_b = frozen_victim(Architecture::kMiniVgg, 4, 95);

  const DetectionReport direct_a = NeuralCleanse(tiny_nc_config()).detect(*victim_a, probe);
  const DetectionReport direct_b = UsbDetector(tiny_usb_config()).detect(*victim_b, probe);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/2));
  ScanRequest request_a;
  request_a.model = victim_a;
  request_a.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request_a.probe_key = key;
  ScanRequest request_b;
  request_b.model = victim_b;
  request_b.detector = std::make_unique<UsbDetector>(tiny_usb_config());
  request_b.probe_key = key;

  const ScanHandle handle_a = service.submit(std::move(request_a));
  const ScanHandle handle_b = service.submit(std::move(request_b));
  const ScanOutcome& outcome_a = handle_a.wait();
  const ScanOutcome& outcome_b = handle_b.wait();
  ASSERT_EQ(outcome_a.status, ScanStatus::kDone) << outcome_a.error;
  ASSERT_EQ(outcome_b.status, ScanStatus::kDone) << outcome_b.error;
  expect_reports_identical(direct_a, outcome_a.report);
  expect_reports_identical(direct_b, outcome_b.report);
}

// Progress events: one kFinalized per class, in any order, all delivered
// by the time the handle resolves.
TEST(DetectionService, ProgressEventsAndDrain) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 96};
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 97);

  DetectionService service(service_config(/*scan_threads=*/1));
  std::atomic<std::int64_t> finalized{0};
  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/3));
  request.probe_key = key;
  request.options.progress = [&finalized](std::int64_t, ClassScanEvent event, double) {
    if (event == ClassScanEvent::kFinalized) finalized.fetch_add(1);
  };
  const ScanHandle handle = service.submit(std::move(request));
  (void)handle.wait();
  EXPECT_EQ(handle.poll(), ScanStatus::kDone);
  EXPECT_EQ(finalized.load(), 4);
}

// Destroying a service with work in flight cancels it; handles stay valid
// and resolve terminally instead of hanging.
TEST(DetectionService, ShutdownCancelsOutstandingScans) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 98};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 99);

  std::vector<ScanHandle> handles;
  {
    DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
    for (int i = 0; i < 3; ++i) {
      ScanRequest request;
      request.model = victim;
      request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/30));
      request.probe_key = key;
      handles.push_back(service.submit(std::move(request)));
    }
  }  // dtor: cancels queued + running scans, joins executors
  for (const ScanHandle& handle : handles) {
    const ScanStatus status = handle.wait().status;
    EXPECT_TRUE(status == ScanStatus::kCancelled || status == ScanStatus::kDone);
  }
}

TEST(DetectionService, MalformedRequestsAreRejected) {
  const DatasetSpec spec = tiny_spec(4);
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 100);
  DetectionService service(service_config(/*scan_threads=*/1));

  // The scan shares the request's network, which is sound only frozen.
  ScanRequest unfrozen;
  unfrozen.model = std::make_shared<Network>(make_network(Architecture::kBasicCnn, 1, 16, 4, 100));
  unfrozen.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  unfrozen.probe_key = ProbeKey{spec, 32, 1};
  EXPECT_THROW((void)service.submit(std::move(unfrozen)), std::invalid_argument);

  ScanRequest no_model;
  no_model.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  no_model.probe_key = ProbeKey{spec, 32, 1};
  EXPECT_THROW((void)service.submit(std::move(no_model)), std::invalid_argument);

  ScanRequest no_detector;
  no_detector.model = victim;
  no_detector.probe_key = ProbeKey{spec, 32, 1};
  EXPECT_THROW((void)service.submit(std::move(no_detector)), std::invalid_argument);

  ScanRequest no_probe;
  no_probe.model = victim;
  no_probe.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  EXPECT_THROW((void)service.submit(std::move(no_probe)), std::invalid_argument);
  EXPECT_EQ(service.scans_submitted(), 0);
  EXPECT_EQ(victim.use_count(), 1);  // a rejected request leaves no reference behind
}

// A probe with more classes than its model would index past the model's
// logits; the scan refuses the pair at its first stage, where a model_ref
// is first resolved, and resolves kFailed naming the mismatch.
TEST(DetectionService, ProbeClassCountMismatchResolvesFailed) {
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 101);
  DetectionService service(service_config(/*scan_threads=*/1));

  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<UsbDetector>(tiny_usb_config());
  request.probe_key = ProbeKey{tiny_spec(6), 32, 102};
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.status, ScanStatus::kFailed);
  EXPECT_NE(outcome.error.find("the probe has 6 classes but the model has 4"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(service.health().scans_failed, 1);
}

// A temporary handle is the only holder of its outcome once the scan
// retires, so wait() on one returns the outcome by value; a named handle
// still lends a reference.
static_assert(std::is_same_v<decltype(std::declval<ScanHandle>().wait()), ScanOutcome>);
static_assert(
    std::is_same_v<decltype(std::declval<const ScanHandle&>().wait()), const ScanOutcome&>);

TEST(DetectionService, OutcomeReadOffATemporaryHandleOutlivesIt) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 103};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 104);
  const DetectionReport direct =
      NeuralCleanse(tiny_nc_config()).detect(*victim, make_probe(spec, 32, 103));

  DetectionService service(service_config(/*scan_threads=*/1));
  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = key;
  const ScanOutcome& outcome = service.submit(std::move(request)).wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone);
  expect_reports_identical(direct, outcome.report);
}

// A default-constructed handle holds no scan: every method throws instead
// of dereferencing a null state.
TEST(DetectionService, EmptyHandleMethodsThrow) {
  const ScanHandle empty;
  EXPECT_THROW((void)empty.id(), std::logic_error);
  EXPECT_THROW((void)empty.poll(), std::logic_error);
  EXPECT_THROW((void)empty.wait(), std::logic_error);
  EXPECT_THROW((void)ScanHandle().wait(), std::logic_error);
  EXPECT_THROW((void)empty.wait_for(0.0), std::logic_error);
  EXPECT_THROW((void)empty.cancel(), std::logic_error);
}

// ---- ProbeStore eviction (LRU by bytes) ---------------------------------

// The store under a byte cap: inserting past the cap evicts the
// least-recently-used UNPINNED entry; the evicted key regenerates on its
// next lookup (a fresh miss).
TEST(ProbeStore, EvictsLeastRecentlyUsedWhenOverByteCap) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key_a{spec, 32, 201};
  const ProbeKey key_b{spec, 32, 202};
  const ProbeKey key_c{spec, 32, 203};

  // Size the cap from a real entry: room for two, not three.
  const std::int64_t entry_bytes = ProbeStore().get_or_create(key_a)->bytes();
  ProbeStore store(ProbeStoreOptions{2 * entry_bytes});

  (void)store.get_or_create(key_a);
  (void)store.get_or_create(key_b);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.bytes_resident(), 2 * entry_bytes);

  // Touch A so B becomes the LRU, then overflow with C: B must go.
  (void)store.get_or_create(key_a);
  (void)store.get_or_create(key_c);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_LE(store.bytes_resident(), 2 * entry_bytes);

  const std::int64_t misses_before = store.misses();
  (void)store.get_or_create(key_a);  // still resident: a hit
  EXPECT_EQ(store.misses(), misses_before);
  (void)store.get_or_create(key_b);  // evicted: regenerates
  EXPECT_EQ(store.misses(), misses_before + 1);
}

// An entry whose shared_ptr is held by a consumer (a scan in flight) is
// pinned: eviction skips it and drops the next unpinned LRU entry instead;
// with every entry pinned the cap is transiently exceeded.
TEST(ProbeStore, PinnedEntriesSurviveEviction) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key_a{spec, 32, 211};
  const ProbeKey key_b{spec, 32, 212};
  const ProbeKey key_c{spec, 32, 213};

  const std::int64_t entry_bytes = ProbeStore().get_or_create(key_a)->bytes();
  ProbeStore store(ProbeStoreOptions{2 * entry_bytes});

  // Hold A (the would-be LRU victim) like an in-flight scan would.
  const std::shared_ptr<const ProbeData> pinned_a = store.get_or_create(key_a);
  std::shared_ptr<const ProbeData> pinned_b = store.get_or_create(key_b);
  (void)store.get_or_create(key_c);  // over cap, but A and B are both pinned
  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(store.evictions(), 0);
  EXPECT_GT(store.bytes_resident(), 2 * entry_bytes);

  // Release B; the next over-cap insert evicts it (A stays pinned).
  const ProbeKey key_d{spec, 32, 214};
  pinned_b.reset();
  (void)store.get_or_create(key_d);
  EXPECT_GE(store.evictions(), 1);
  const std::int64_t misses_before = store.misses();
  (void)store.get_or_create(key_a);  // pinned entry still resident
  EXPECT_EQ(store.misses(), misses_before);
}

// Pins only defer eviction: once they drop, the next lookup — a hit
// included — trims the store back under its cap, and the kProbeData budget
// (health() reports it) follows. The entry being handed out counts as
// pinned, so the hit evicts the other one.
TEST(ProbeStore, OverCapStoreTrimsOnceUnpinned) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key_a{spec, 32, 215};
  const ProbeKey key_b{spec, 32, 216};
  const std::int64_t entry_bytes = ProbeStore().get_or_create(key_a)->bytes();
  const MemoryBudget& budget = MemoryBudget::process();
  const std::int64_t baseline = budget.bytes(MemoryBudget::Category::kProbeData);

  ProbeStore store(ProbeStoreOptions{entry_bytes});  // room for one entry
  {
    const std::shared_ptr<const ProbeData> pinned_a = store.get_or_create(key_a);
    const std::shared_ptr<const ProbeData> pinned_b = store.get_or_create(key_b);
    EXPECT_EQ(store.size(), 2);  // both pinned: over cap, nothing evictable
  }
  for (int i = 0; i < 3; ++i) (void)store.get_or_create(key_a);
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.bytes_resident(), entry_bytes);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData) - baseline, entry_bytes);
  EXPECT_EQ(store.misses(), 2);  // A stayed resident throughout
}

// clear() while a cold key is still materializing drops its pending cell:
// the loader's caller gets the data, but the store never publishes it — no
// resident entry, no budgeted bytes — so the next lookup is a second miss.
TEST(ProbeStore, ClearDuringMaterializationDropsTheCell) {
  const MemoryBudget& budget = MemoryBudget::process();
  const std::int64_t baseline = budget.bytes(MemoryBudget::Category::kProbeData);
  fault::FaultSpec delay;
  delay.kind = fault::FaultSpec::Kind::kDelay;
  delay.delay_seconds = 0.3;
  fault::FaultRegistry::instance().arm("probe_store.materialize", delay);

  ProbeStore store;
  const ProbeKey key{tiny_spec(4), 32, 217};
  std::shared_ptr<const ProbeData> loaded;
  std::thread loader([&store, &key, &loaded] { loaded = store.get_or_create(key); });
  while (store.size() == 0) std::this_thread::yield();  // the cell is claimed
  store.clear();
  loader.join();
  fault::FaultRegistry::instance().disarm_all();

  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->probe.size(), 32);
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.bytes_resident(), 0);
  EXPECT_EQ(budget.bytes(MemoryBudget::Category::kProbeData), baseline);
  (void)store.get_or_create(key);
  EXPECT_EQ(store.misses(), 2);
}

// ---- Gated scans: a deterministically busy executor ---------------------

namespace {

/// A request whose scan blocks inside its first progress event until
/// `gate` is released — pins the executor deterministically.
ScanRequest gated_request(std::shared_ptr<const Network> victim, const ProbeKey& key,
                          std::shared_future<void> gate) {
  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = key;
  request.options.progress = [gate = std::move(gate)](std::int64_t, ClassScanEvent event,
                                                      double) {
    if (event == ClassScanEvent::kFinalized) gate.wait();
  };
  return request;
}

void wait_until_running(const ScanHandle& handle) {
  while (handle.poll() == ScanStatus::kQueued) std::this_thread::yield();
}

}  // namespace

// ---- Shared networks: a scan never copies its model ---------------------

// N scans queued behind a busy executor hold the request's network by
// reference, one count each — no copy, no extra holder — and drop it on
// resolution; every report still equals detect()'s.
TEST(DetectionService, QueuedScansShareTheRequestNetworkAndReleaseIt) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 241};
  const Dataset probe = make_probe(spec, 32, 241);
  const auto blocker_victim = frozen_victim(Architecture::kBasicCnn, 4, 242);
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 243);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);
  ASSERT_EQ(victim.use_count(), 1);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
  std::promise<void> release;
  const std::shared_future<void> gate(release.get_future());
  const ScanHandle busy = service.submit(gated_request(blocker_victim, key, gate));
  wait_until_running(busy);

  constexpr int kScans = 3;
  std::vector<ScanHandle> handles;
  for (int i = 0; i < kScans; ++i) {
    ScanRequest request;
    request.model = victim;
    request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
    request.probe_key = key;
    handles.push_back(service.submit(std::move(request)));
    EXPECT_EQ(handles.back().poll(), ScanStatus::kQueued);
  }
  EXPECT_EQ(victim.use_count(), 1 + kScans);

  release.set_value();
  EXPECT_EQ(busy.wait().status, ScanStatus::kDone);
  for (const ScanHandle& handle : handles) {
    const ScanOutcome& outcome = handle.wait();
    ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
    expect_reports_identical(direct, outcome.report);
  }
  EXPECT_EQ(victim.use_count(), 1);
}

// The caller may keep scanning its own network while service scans share
// it: detect() on a frozen instance writes nothing to it (freeze() returns
// at once), so its passes and the dispatchers' do not race — the TSan job
// runs this — and every report equals a detect() run alone.
TEST(DetectionService, DetectOnTheSharedNetworkWhileServiceScansRunIt) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 245};
  const Dataset probe = make_probe(spec, 32, 245);
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 246);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  DetectionService service(service_config(/*scan_threads=*/2));
  std::vector<ScanHandle> handles;
  for (int i = 0; i < 2; ++i) {
    ScanRequest request;
    request.model = victim;
    request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
    request.probe_key = key;
    handles.push_back(service.submit(std::move(request)));
  }
  ThreadPool pool(2);
  const DetectionReport concurrent =
      NeuralCleanse(tiny_nc_config()).detect(*victim, probe, pool);
  expect_reports_identical(direct, concurrent);
  for (const ScanHandle& handle : handles) {
    const ScanOutcome& outcome = handle.wait();
    ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
    expect_reports_identical(direct, outcome.report);
  }
}

// ---- Global scheduler: fairness, queued cancel --------------------------

// Cancelling a still-queued scan resolves the handle IMMEDIATELY — proven
// by wedging the service's only dispatcher inside another scan, so nothing
// but synchronous queue removal could produce kCancelled here — and frees
// its queue slot for the next submit. (CancelWhileQueuedNeverRuns covers
// the eventual-drain side.)
TEST(DetectionService, CancelWhileQueuedResolvesImmediatelyAndFreesSlot) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 251};
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 252);

  DetectionServiceConfig config = service_config(/*scan_threads=*/1, /*executors=*/1);
  config.shed_queue_depth = 1;  // a second queued scan would shed the newest
  DetectionService service(config);

  std::promise<void> release;
  const std::shared_future<void> gate(release.get_future());
  const ScanHandle busy = service.submit(gated_request(victim, key, gate));
  wait_until_running(busy);

  std::atomic<std::int64_t> doomed_events{0};
  ScanRequest doomed;
  doomed.model = victim;
  doomed.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  doomed.probe_key = key;
  doomed.options.progress = [&doomed_events](std::int64_t, ClassScanEvent, double) {
    doomed_events.fetch_add(1);
  };
  const ScanHandle doomed_handle = service.submit(std::move(doomed));
  EXPECT_EQ(doomed_handle.poll(), ScanStatus::kQueued);

  EXPECT_TRUE(doomed_handle.cancel());
  EXPECT_EQ(doomed_handle.poll(), ScanStatus::kCancelled);  // no waiting
  EXPECT_EQ(doomed_handle.wait().status, ScanStatus::kCancelled);
  EXPECT_EQ(doomed_events.load(), 0);
  EXPECT_EQ(service.health().scans_cancelled, 1);

  // The cancelled scan's queue slot is free again: with the dispatcher
  // still wedged, a fresh submit queues instead of breaching the depth
  // watermark and shedding itself.
  ScanRequest replacement;
  replacement.model = victim;
  replacement.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  replacement.probe_key = key;
  const ScanHandle replacement_handle = service.submit(std::move(replacement));
  EXPECT_EQ(replacement_handle.poll(), ScanStatus::kQueued);

  release.set_value();
  EXPECT_EQ(busy.wait().status, ScanStatus::kDone);
  EXPECT_EQ(replacement_handle.wait().status, ScanStatus::kDone);
}

// The tentpole property: a K=4 scan submitted behind a K=43 scan on a
// single-dispatcher service interleaves with it (equal fair share) and
// finishes while the large scan is still running — the old per-request
// executors could never do this — and BOTH reports stay bit-identical to
// detect().
TEST(DetectionService, FairShareSmallScanFinishesUnderLargeLoad) {
  DatasetSpec large_spec = tiny_spec(43);
  large_spec.name = "detection-service-fairness-large";
  const DatasetSpec small_spec = tiny_spec(4);
  const ProbeKey large_key{large_spec, 32, 261};
  const ProbeKey small_key{small_spec, 32, 262};
  const Dataset large_probe = generate_dataset(large_spec, 32, 261);
  const Dataset small_probe = generate_dataset(small_spec, 32, 262);
  const auto large_victim = frozen_victim(Architecture::kBasicCnn, 43, 263);
  const auto small_victim = frozen_victim(Architecture::kBasicCnn, 4, 264);

  const DetectionReport direct_large =
      NeuralCleanse(tiny_nc_config()).detect(*large_victim, large_probe);
  const DetectionReport direct_small =
      NeuralCleanse(tiny_nc_config()).detect(*small_victim, small_probe);

  DetectionServiceConfig config = service_config(/*scan_threads=*/1, /*executors=*/2);
  config.round_dispatchers = 1;  // both scans admitted, ONE crew to share
  DetectionService service(config);

  ScanRequest large;
  large.model = large_victim;
  large.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  large.probe_key = large_key;
  const ScanHandle large_handle = service.submit(std::move(large));

  ScanRequest small;
  small.model = small_victim;
  small.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  small.probe_key = small_key;
  const ScanHandle small_handle = service.submit(std::move(small));

  const ScanOutcome& small_outcome = small_handle.wait();
  ASSERT_EQ(small_outcome.status, ScanStatus::kDone) << small_outcome.error;
  // ~10x the remaining work: the large scan cannot have finished unless
  // it monopolized the dispatcher and starved the small one out.
  EXPECT_EQ(large_handle.poll(), ScanStatus::kRunning) << "small scan did not finish first";
  const ScanOutcome& large_outcome = large_handle.wait();
  ASSERT_EQ(large_outcome.status, ScanStatus::kDone) << large_outcome.error;

  // Fair-share scheduling has no numeric effect.
  expect_reports_identical(direct_small, small_outcome.report);
  expect_reports_identical(direct_large, large_outcome.report);
  EXPECT_GT(service.rounds_dispatched(), 0);
}

// N threads race get_or_create on one cold key: exactly one generation
// (one miss), everyone else blocks on that entry's materialization and
// shares the pointer (N-1 hits) — the convoy fix must not turn into a
// thundering herd of duplicate builds.
TEST(ProbeStore, ColdKeyRaceMaterializesOnce) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 271};
  ProbeStore store;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ProbeData>> results(kThreads);
  std::promise<void> go;
  const std::shared_future<void> start(go.get_future());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store, &results, &key, start, i] {
      start.wait();
      results[static_cast<std::size_t>(i)] = store.get_or_create(key);
    });
  }
  go.set_value();
  for (std::thread& thread : threads) thread.join();

  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], results[0]);
  }
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), kThreads - 1);
}

// ---- Deadlines (ScanOptions::deadline_seconds) --------------------------

TEST(DetectionService, ScanStatusToStringCoversEveryValue) {
  EXPECT_EQ(to_string(ScanStatus::kQueued), "queued");
  EXPECT_EQ(to_string(ScanStatus::kRunning), "running");
  EXPECT_EQ(to_string(ScanStatus::kDone), "done");
  EXPECT_EQ(to_string(ScanStatus::kCancelled), "cancelled");
  EXPECT_EQ(to_string(ScanStatus::kFailed), "failed");
  EXPECT_EQ(to_string(ScanStatus::kTimedOut), "timed_out");
  EXPECT_EQ(to_string(ScanStatus::kShed), "shed");
}

TEST(DetectionService, ClassScanStateToStringCoversEveryValue) {
  EXPECT_EQ(to_string(ClassScanState::kPending), "pending");
  EXPECT_EQ(to_string(ClassScanState::kRefining), "refining");
  EXPECT_EQ(to_string(ClassScanState::kFinalized), "finalized");
  EXPECT_EQ(to_string(ClassScanState::kNumericallyUnstable), "numerically_unstable");
}

// wait_for is poll-with-timeout: it returns the CURRENT status when the
// budget elapses on a still-running scan, and the terminal status as soon
// as one exists — never an error, never an indefinite block.
TEST(DetectionService, WaitForReturnsCurrentStatusOnTimeoutAndTerminalOnCompletion) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 291};
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 292);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
  std::promise<void> release;
  const std::shared_future<void> gate(release.get_future());
  const ScanHandle busy = service.submit(gated_request(victim, key, gate));
  wait_until_running(busy);

  // Gated scan: a short wait elapses and reports the live status.
  const ScanStatus while_running = busy.wait_for(0.01);
  EXPECT_TRUE(while_running == ScanStatus::kRunning || while_running == ScanStatus::kQueued);

  release.set_value();
  // Generous budget: returns the terminal status well before 30s.
  EXPECT_EQ(busy.wait_for(30.0), ScanStatus::kDone);
  // A scan already terminal returns immediately, even with a zero budget.
  EXPECT_EQ(busy.wait_for(0.0), ScanStatus::kDone);
}

// A deadline that is set but never hit must have zero numeric effect: the
// report stays byte-identical to detect(), per_class_state is all
// kFinalized, and nothing lands in the timed-out counter. That holds for a
// deadline too long for steady_clock, infinity included (steady_span()
// clamps it rather than overflowing into the past), and wait_for() with an
// infinite budget blocks until the scan is done.
TEST(DetectionService, GenerousDeadlineSubmitMatchesDetectByteForByte) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 281};
  const Dataset probe = generate_dataset(spec, 32, 281);
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 282);

  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  DetectionService service(service_config(/*scan_threads=*/1));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> deadlines = {7200.0, 1e300, kInf};
  for (const double deadline : deadlines) {
    ScanRequest request;
    request.model = victim;
    request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
    request.probe_key = key;
    request.options.deadline_seconds = deadline;
    const ScanHandle handle = service.submit(std::move(request));

    ASSERT_EQ(handle.wait_for(kInf), ScanStatus::kDone) << "deadline " << deadline;
    const ScanOutcome& outcome = handle.wait();
    ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
    expect_reports_identical(direct, outcome.report);
    EXPECT_TRUE(outcome.report.complete());
    EXPECT_TRUE(outcome.report.quarantined_classes().empty());
  }
  EXPECT_EQ(service.health().scans_timed_out, 0);
  EXPECT_EQ(service.health().scans_completed, static_cast<std::int64_t>(deadlines.size()));
}

// An in-flight scan whose deadline passes resolves kTimedOut at the next
// stage boundary, with a partial report whose per-class states say how far
// each class got; the service stays fully reusable afterwards.
TEST(DetectionService, DeadlineMidScanResolvesTimedOutWithPartialReport) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 283};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 284);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
  ScanRequest request;
  request.model = victim;
  // A budget far beyond the deadline: the scan CANNOT finish in time.
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/600));
  request.probe_key = key;
  request.options.deadline_seconds = 0.05;
  const ScanHandle handle = service.submit(std::move(request));

  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kTimedOut);
  EXPECT_EQ(service.health().scans_timed_out, 1);
  if (!outcome.report.per_class_state.empty()) {
    // The scan got past init: the partial report is fully shaped and
    // records per-class completion honestly (nothing can have finalized).
    EXPECT_EQ(outcome.report.per_class_state.size(),
              static_cast<std::size_t>(spec.num_classes));
    EXPECT_FALSE(outcome.report.complete());
  }
  EXPECT_FALSE(handle.cancel());  // already terminal

  // Reusability: an identical request without the deadline completes.
  ScanRequest again;
  again.model = victim;
  again.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/3));
  again.probe_key = key;
  EXPECT_EQ(service.submit(std::move(again)).wait().status, ScanStatus::kDone);
}

// wait() on a deadline-expired scan that is still QUEUED (the only
// dispatcher is wedged in another scan) resolves kTimedOut promptly,
// without the scan ever running a stage or consuming the dispatcher.
TEST(DetectionService, WaitOnExpiredQueuedScanResolvesTimedOutWithoutRunning) {
  const DatasetSpec spec = tiny_spec(4);
  const ProbeKey key{spec, 32, 285};
  const auto victim = frozen_victim(Architecture::kBasicCnn, 4, 286);

  DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
  std::promise<void> release;
  const std::shared_future<void> gate(release.get_future());
  const ScanHandle busy = service.submit(gated_request(victim, key, gate));
  wait_until_running(busy);

  std::atomic<std::int64_t> events{0};
  ScanRequest doomed;
  doomed.model = victim;
  doomed.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  doomed.probe_key = key;
  doomed.options.deadline_seconds = 0.02;
  doomed.options.progress = [&events](std::int64_t, ClassScanEvent, double) {
    events.fetch_add(1);
  };
  const ScanHandle doomed_handle = service.submit(std::move(doomed));
  EXPECT_EQ(doomed_handle.poll(), ScanStatus::kQueued);

  const ScanOutcome& outcome = doomed_handle.wait();  // nudges at expiry
  EXPECT_EQ(outcome.status, ScanStatus::kTimedOut);
  EXPECT_TRUE(outcome.report.per_class_state.empty());  // never ran init
  EXPECT_EQ(events.load(), 0);
  EXPECT_EQ(service.health().scans_timed_out, 1);

  release.set_value();
  EXPECT_EQ(busy.wait().status, ScanStatus::kDone);
}

// Shutdown under load with mixed deadlines: queued scans already past
// their deadline resolve kTimedOut (the deadline expired first; shutdown
// must not mask it), everything else resolves kCancelled or kDone.
TEST(DetectionService, ShutdownResolvesExpiredScansTimedOutNotCancelled) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 287};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 288);

  ScanHandle busy_handle;
  std::vector<ScanHandle> expired_handles;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> event_counts;
  {
    DetectionService service(service_config(/*scan_threads=*/1, /*executors=*/1));
    ScanRequest busy;
    busy.model = victim;
    busy.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/60));
    busy.probe_key = key;
    busy_handle = service.submit(std::move(busy));

    for (int i = 0; i < 3; ++i) {
      event_counts.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
      std::atomic<std::int64_t>* count = event_counts.back().get();
      ScanRequest doomed;
      doomed.model = victim;
      doomed.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
      doomed.probe_key = key;
      doomed.options.deadline_seconds = 0.01;
      doomed.options.progress = [count](std::int64_t, ClassScanEvent, double) {
        count->fetch_add(1);
      };
      expired_handles.push_back(service.submit(std::move(doomed)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));  // deadlines pass
  }  // dtor: cancels everything in flight

  for (std::size_t i = 0; i < expired_handles.size(); ++i) {
    EXPECT_EQ(expired_handles[i].wait().status, ScanStatus::kTimedOut) << "scan " << i;
    EXPECT_EQ(event_counts[i]->load(), 0) << "scan " << i;
  }
  const ScanStatus busy_status = busy_handle.wait().status;
  EXPECT_TRUE(busy_status == ScanStatus::kCancelled || busy_status == ScanStatus::kDone);
}

// ---- Scan memory: an arena per running stage, not per class ------------

// The dispatchers take a scan's items round-robin, so all ten classes are
// constructed before the first one finalizes. Tasks keep no arena between
// their stages, so at every finalize the scan holds only what its two
// dispatchers' stages borrowed (and their spares): within three of one
// stage's arena, where holding one per constructed class would be nine.
TEST(DetectionService, ScanArenaBytesDoNotGrowWithClassCount) {
  const DatasetSpec spec = tiny_spec(10);
  const ProbeKey key{spec, 40, 105};
  const auto victim = frozen_victim(Architecture::kBasicCnn, spec.num_classes, 106);
  const std::int64_t one_stage = one_stage_arena_bytes(
      NeuralCleanse(tiny_nc_config()).plan(), *victim, make_probe(spec, 40, 105));
  ASSERT_GT(one_stage, 0);

  DetectionServiceConfig config = service_config(/*scan_threads=*/2, /*executors=*/1);
  config.round_dispatchers = 2;
  DetectionService service(config);
  const std::int64_t baseline = arena_bytes();
  std::mutex mu;
  std::int64_t finalized = 0;
  std::int64_t most = 0;
  ScanRequest request;
  request.model = victim;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = key;
  request.options.progress = [&](std::int64_t, ClassScanEvent event, double) {
    if (event != ClassScanEvent::kFinalized) return;
    const std::lock_guard<std::mutex> lock(mu);
    ++finalized;
    most = std::max(most, arena_bytes() - baseline);
  };
  ASSERT_EQ(service.submit(std::move(request)).wait().status, ScanStatus::kDone);
  EXPECT_EQ(finalized, spec.num_classes);
  EXPECT_LE(most, 3 * one_stage) << "one stage's arena: " << one_stage << " bytes";
}

}  // namespace usb
