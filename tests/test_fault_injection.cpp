// Fault-injection suite: drives every compiled-in failure path of the
// serving stack through the FaultRegistry.
//
// The load-bearing guarantees under test:
//  - the registry itself (hit windows, scope filtering, delay/NaN kinds);
//  - a throw at ANY scan stage (the init stage's probe materialization,
//    prepare, construct, round, the round-barrier cutoff, retire,
//    finalize) fails exactly that scan at once with kFailed naming the
//    faulted point, and the service stays fully reusable afterwards — a
//    resubmitted scan is byte-identical to detect(), which is all a retry
//    could have given;
//  - a NaN statistic at a round boundary quarantines exactly that class
//    (kNumericallyUnstable, peeled from the verdict) while a CONCURRENT
//    healthy scan on the same dispatchers stays byte-identical to
//    Detector::detect() — per-scan fault scoping is what isolates them;
//  - detect() runs the same steps: it quarantines at round boundaries in
//    every schedule, and an injected throw propagates out of it and leaves
//    the next detect() byte-identical to a clean run;
//  - an injected delay that pushes a scan past its deadline resolves
//    kTimedOut with a well-formed partial report;
//  - a probe materialization that throws leaves the store empty and
//    retryable, with accurate miss accounting;
//  - an ARMED-but-non-matching registry (wrong point, wrong scope) leaves
//    healthy reports byte-identical — the fault layer is inert unless a
//    spec actually matches.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/usb.h"
#include "data/probe_store.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "exp/model_zoo.h"
#include "nn/models.h"
#include "report_identity.h"
#include "service/detection_service.h"
#include "utils/fault_injection.h"

namespace usb {
namespace {

DatasetSpec tiny_spec(std::int64_t num_classes = 6) {
  DatasetSpec spec;
  spec.name = "fault-injection-tiny";
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

// The registry is process-global; every test starts and ends disarmed so
// suites stay independent (and a failing EXPECT cannot leak a live fault
// into the next test).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { fault::FaultRegistry::instance().disarm_all(); }
};

TEST_F(FaultInjectionTest, RegistryTriggersExactlyInTheConfiguredHitWindow) {
  auto& registry = fault::FaultRegistry::instance();
  fault::FaultSpec spec;
  spec.kind = fault::FaultSpec::Kind::kThrow;
  spec.after_hits = 1;
  spec.count = 1;
  registry.arm("unit.window", spec);

  registry.on_point("unit.window");  // hit 0: before the window
  EXPECT_THROW(registry.on_point("unit.window"), fault::InjectedFault);  // hit 1
  registry.on_point("unit.window");  // hit 2: window exhausted
  EXPECT_EQ(registry.hits("unit.window"), 3);

  // Re-arming resets the counter; disarming silences and forgets the point.
  registry.arm("unit.window", spec);
  EXPECT_EQ(registry.hits("unit.window"), 0);
  registry.disarm_all();
  registry.on_point("unit.window");
  EXPECT_EQ(registry.hits("unit.window"), 0);
}

TEST_F(FaultInjectionTest, RegistryScopeFiltersBothTriggeringAndCounting) {
  auto& registry = fault::FaultRegistry::instance();
  fault::FaultSpec spec;
  spec.kind = fault::FaultSpec::Kind::kThrow;
  spec.count = -1;  // every matching hit
  spec.scope = 7;
  spec.message = "scoped fault";
  registry.arm("unit.scoped", spec);

  // Untagged thread: never triggers, never counts.
  registry.on_point("unit.scoped");
  EXPECT_EQ(registry.hits("unit.scoped"), 0);

  {
    const fault::FaultScope scope(7);
    EXPECT_EQ(fault::FaultScope::current(), 7u);
    try {
      registry.on_point("unit.scoped");
      FAIL() << "scoped fault did not trigger";
    } catch (const fault::InjectedFault& fault) {
      EXPECT_STREQ(fault.what(), "scoped fault");
    }
    {
      const fault::FaultScope inner(9);  // nested tag: wrong scan, no trigger
      registry.on_point("unit.scoped");
    }
    EXPECT_EQ(fault::FaultScope::current(), 7u);  // restored after nesting
  }
  EXPECT_EQ(fault::FaultScope::current(), 0u);
  registry.on_point("unit.scoped");  // tag gone: silent again
  EXPECT_EQ(registry.hits("unit.scoped"), 1);
}

TEST_F(FaultInjectionTest, RegistryDelayAndNanKindsBehaveAsDocumented) {
  auto& registry = fault::FaultRegistry::instance();

  fault::FaultSpec delay;
  delay.kind = fault::FaultSpec::Kind::kDelay;
  delay.delay_seconds = 0.02;
  registry.arm("unit.delay", delay);
  const auto start = std::chrono::steady_clock::now();
  registry.on_point("unit.delay");  // sleeps, must not throw
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, 0.015);

  fault::FaultSpec nan;
  nan.kind = fault::FaultSpec::Kind::kNan;
  nan.count = 1;
  registry.arm("unit.nan", nan);
  registry.on_point("unit.nan");          // kNan is inert at throw/delay sites
  EXPECT_FALSE(registry.poison("unit.nan"));  // hit 1: window already burned
  registry.arm("unit.nan", nan);
  EXPECT_TRUE(registry.poison("unit.nan"));   // fresh window: poison once
  EXPECT_FALSE(registry.poison("unit.nan"));
  EXPECT_FALSE(registry.poison("unit.never_armed"));
}

// A throw at EVERY stage the execution runs — in both schedules — resolves
// exactly that scan to kFailed with an error naming the faulted point, and
// the same service keeps serving. The probe materialization case runs
// first, while the key is still cold: with no wrapper between the store
// and the scan, the store's own failure fails only that scan, and the
// erased cell lets the next case's scan materialize the key afresh.
TEST_F(FaultInjectionTest, EveryScanStageFaultFailsOnlyThatScanAndNamesThePoint) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 91};
  const Dataset probe = make_probe(spec, 48, 91);
  const auto victim = frozen_victim(spec.num_classes, 92);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  enum Mode { kMono, kBarrier };
  struct StageCase {
    const char* point;
    Mode mode;
  };
  const std::vector<StageCase> cases = {
      {"probe_store.materialize", kMono},
      {"scan.prepare", kMono},  {"scan.construct", kMono},
      {"scan.round", kMono},    {"scan.finalize", kMono},
      {"scan.cutoff", kBarrier}, {"scan.retire", kBarrier},
  };
  // margin 0 retires every class strictly above the running median, so
  // the retire stage is guaranteed to run before budgets drain.
  ReverseOptConfig barrier_config = tiny_nc_config();
  barrier_config.early_exit.enabled = true;
  barrier_config.early_exit.round_steps = 2;
  barrier_config.early_exit.margin = 0.0;

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  auto& registry = fault::FaultRegistry::instance();
  for (const StageCase& stage_case : cases) {
    fault::FaultSpec fault_spec;
    fault_spec.kind = fault::FaultSpec::Kind::kThrow;
    fault_spec.count = 1;
    registry.arm(stage_case.point, fault_spec);

    ScanRequest request;
    request.model = victim;
    request.probe_key = key;
    request.detector = std::make_unique<NeuralCleanse>(
        stage_case.mode == kMono ? tiny_nc_config() : barrier_config);
    const ScanHandle handle = service.submit(std::move(request));
    const ScanOutcome& outcome = handle.wait();
    EXPECT_EQ(outcome.status, ScanStatus::kFailed)
        << stage_case.point << " in mode " << stage_case.mode;
    EXPECT_NE(outcome.error.find(stage_case.point), std::string::npos)
        << "error was: " << outcome.error;
    registry.disarm_all();
  }
  EXPECT_EQ(service.health().scans_failed, static_cast<std::int64_t>(cases.size()));
  // The failed materialization left no cell behind: the second case missed
  // afresh and every later scan hit the one resident entry.
  EXPECT_EQ(service.probe_store().misses(), 2);
  EXPECT_EQ(service.probe_store().size(), 1);

  // Seven consecutive injected failures later, a healthy scan on the SAME
  // service is still byte-identical to the blocking detector — the
  // resubmit that stands in for a retry.
  ScanRequest healthy;
  healthy.model = victim;
  healthy.probe_key = key;
  healthy.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  const ScanHandle handle = service.submit(std::move(healthy));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
  expect_reports_identical(direct, outcome.report);
}

// Numerical quarantine with per-scan scoping: a poisoned round statistic in
// one scan retires that class as kNumericallyUnstable and peels it from the
// verdict — while a concurrent healthy scan sharing the same dispatchers
// and thread pool stays byte-identical to detect().
TEST_F(FaultInjectionTest, NanQuarantinesOneClassWithoutTouchingConcurrentHealthyScan) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 93};
  const Dataset probe = make_probe(spec, 48, 93);
  const auto victim = frozen_victim(spec.num_classes, 94);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/2));
  // Scan ids are assigned 1, 2, ... per service; scope the poison to the
  // SECOND submission before either starts running.
  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kNan;
  fault_spec.count = 1;
  fault_spec.scope = 2;
  fault::FaultRegistry::instance().arm("scan.round_stat", fault_spec);

  ScanRequest healthy;
  healthy.model = victim;
  healthy.probe_key = key;
  healthy.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  const ScanHandle healthy_handle = service.submit(std::move(healthy));

  ScanRequest faulty;
  faulty.model = victim;
  faulty.probe_key = key;
  faulty.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  const ScanHandle faulty_handle = service.submit(std::move(faulty));
  ASSERT_EQ(healthy_handle.id(), 1u);
  ASSERT_EQ(faulty_handle.id(), 2u);

  const ScanOutcome& healthy_outcome = healthy_handle.wait();
  const ScanOutcome& faulty_outcome = faulty_handle.wait();
  ASSERT_EQ(healthy_outcome.status, ScanStatus::kDone) << healthy_outcome.error;
  ASSERT_EQ(faulty_outcome.status, ScanStatus::kDone) << faulty_outcome.error;

  expect_reports_identical(direct, healthy_outcome.report);

  // The faulty scan still completes — with exactly one quarantined class.
  const DetectionReport& report = faulty_outcome.report;
  EXPECT_TRUE(report.complete());
  const std::vector<std::int64_t> quarantined = report.quarantined_classes();
  ASSERT_EQ(quarantined.size(), 1u);
  const auto slot = static_cast<std::size_t>(quarantined[0]);
  EXPECT_EQ(report.per_class_state[slot], ClassScanState::kNumericallyUnstable);
  EXPECT_TRUE(std::isnan(report.per_class[slot].mask_l1));
  ASSERT_EQ(report.verdict.anomaly.size(), static_cast<std::size_t>(spec.num_classes));
  EXPECT_TRUE(std::isnan(report.verdict.anomaly[slot]));  // peeled, not scored
  for (std::size_t t = 0; t < report.per_class_state.size(); ++t) {
    if (t == slot) continue;
    EXPECT_EQ(report.per_class_state[t], ClassScanState::kFinalized);
    EXPECT_FALSE(std::isnan(report.verdict.norms[t]));
  }
}

// detect() applies the identical quarantine rule at its round boundaries,
// with early exit off as well as on: detect() still returns, the diverged
// class is excluded.
TEST_F(FaultInjectionTest, BlockingEarlyExitPathQuarantinesAtRoundBoundary) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 95);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 96);

  for (const bool early_exit : {false, true}) {
    ReverseOptConfig config = tiny_nc_config();
    config.early_exit.enabled = early_exit;
    config.early_exit.round_steps = 2;

    fault::FaultSpec fault_spec;
    fault_spec.kind = fault::FaultSpec::Kind::kNan;
    fault_spec.count = 1;
    fault::FaultRegistry::instance().arm("scan.round_stat", fault_spec);

    const DetectionReport report = NeuralCleanse(config).detect(victim, probe);
    EXPECT_TRUE(report.complete()) << "early exit " << early_exit;
    const std::vector<std::int64_t> quarantined = report.quarantined_classes();
    ASSERT_EQ(quarantined.size(), 1u) << "early exit " << early_exit;
    const auto slot = static_cast<std::size_t>(quarantined[0]);
    EXPECT_TRUE(std::isnan(report.per_class[slot].mask_l1));
    EXPECT_TRUE(std::isnan(report.verdict.anomaly[slot]));
  }
}

// detect() runs through the same fault points as the service: a one-shot
// throw at a round propagates out of it as InjectedFault, and the next
// detect() is byte-identical to a clean run.
TEST_F(FaultInjectionTest, DetectPropagatesInjectedRoundFaultAndStaysReusable) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 103);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 104);
  const DetectionReport clean = NeuralCleanse(tiny_nc_config()).detect(victim, probe);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = 1;
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);
  EXPECT_THROW((void)NeuralCleanse(tiny_nc_config()).detect(victim, probe),
               fault::InjectedFault);
  EXPECT_GE(fault::FaultRegistry::instance().hits("scan.round"), 1);

  const DetectionReport again = NeuralCleanse(tiny_nc_config()).detect(victim, probe);
  expect_reports_identical(clean, again);
}

// An injected per-round delay pushes a scan past its deadline: the handle
// resolves kTimedOut with a well-formed partial report, and the service
// serves the next (fault-free) request normally.
TEST_F(FaultInjectionTest, InjectedRoundDelayResolvesDeadlinedScanTimedOut) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 97};
  const Dataset probe = make_probe(spec, 48, 97);
  const auto victim = frozen_victim(spec.num_classes, 98);

  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kDelay;
  fault_spec.delay_seconds = 0.02;
  fault_spec.count = -1;  // every round
  fault::FaultRegistry::instance().arm("scan.round", fault_spec);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request;
  request.model = victim;
  request.probe_key = key;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/60));
  request.options.deadline_seconds = 0.1;
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kTimedOut) << outcome.error;
  EXPECT_EQ(service.health().scans_timed_out, 1);
  // The partial report is well-formed: one state per class, not complete
  // (0.1s of 20ms-per-round injected latency cannot finalize six classes).
  ASSERT_EQ(outcome.report.per_class_state.size(), static_cast<std::size_t>(spec.num_classes));
  EXPECT_FALSE(outcome.report.complete());

  fault::FaultRegistry::instance().disarm_all();
  ScanRequest retry;
  retry.model = victim;
  retry.probe_key = key;
  retry.detector = std::make_unique<NeuralCleanse>(tiny_nc_config(/*steps=*/3));
  retry.options.deadline_seconds = 3600.0;
  const ScanHandle retry_handle = service.submit(std::move(retry));
  EXPECT_EQ(retry_handle.wait().status, ScanStatus::kDone);
}

// Satellite: a probe materialization that throws must leave the store
// EMPTY (no wedged pending cell) and retryable, with accurate miss counts.
TEST_F(FaultInjectionTest, ProbeStoreSurvivesGeneratorFailureAndRetries) {
  fault::FaultSpec fault_spec;
  fault_spec.kind = fault::FaultSpec::Kind::kThrow;
  fault_spec.count = 1;
  fault::FaultRegistry::instance().arm("probe_store.materialize", fault_spec);

  ProbeStore store;
  const ProbeKey key{tiny_spec(), 48, 99};
  EXPECT_THROW(store.get_or_create(key), fault::InjectedFault);
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), 0);

  // The failed cell was erased, so the retry is a fresh miss that succeeds.
  const auto data = store.get_or_create(key);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->probe.size(), 48);
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.misses(), 2);
  EXPECT_EQ(store.hits(), 0);
}

// The acceptance pin for "compiled-in but inert": an ARMED registry whose
// specs never match (unknown point, foreign scan scope) must leave a
// healthy scan byte-identical to the blocking detector.
TEST_F(FaultInjectionTest, NonMatchingArmedSpecsLeaveHealthyScanByteIdentical) {
  const DatasetSpec spec = tiny_spec();
  const ProbeKey key{spec, 48, 101};
  const Dataset probe = make_probe(spec, 48, 101);
  const auto victim = frozen_victim(spec.num_classes, 102);
  const DetectionReport direct = NeuralCleanse(tiny_nc_config()).detect(*victim, probe);

  fault::FaultSpec unknown;
  unknown.kind = fault::FaultSpec::Kind::kThrow;
  unknown.count = -1;
  fault::FaultRegistry::instance().arm("no.such.point", unknown);
  fault::FaultSpec foreign;
  foreign.kind = fault::FaultSpec::Kind::kThrow;
  foreign.count = -1;
  foreign.scope = 999;  // no scan ever gets this id here
  fault::FaultRegistry::instance().arm("scan.round", foreign);

  DetectionService service(service_config(/*scan_threads=*/2, /*executors=*/1));
  ScanRequest request;
  request.model = victim;
  request.probe_key = key;
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.options.deadline_seconds = 3600.0;  // set but never hit
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
  expect_reports_identical(direct, outcome.report);
}

}  // namespace
}  // namespace usb
