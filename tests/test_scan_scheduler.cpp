// The scan engine (StagedScan + run_scan_plan): the parallel multi-class
// detection engine behind every Detector::detect().
//
// The load-bearing guarantee is determinism: a DetectionReport's scientific
// payload (per-class estimates and verdict) must be bit-identical for any
// thread count, because every per-class job derives its RNG streams only
// from (base_seed, class) and the reduction into the MAD stage is ordered.
// USB_THREADS merely resizes the global pool; passing explicitly sized
// pools to detect() exercises the same code path in-process, so these
// tests cover USB_THREADS=1 vs USB_THREADS=4.
#include <gtest/gtest.h>

#include "core/targeted_uap.h"
#include "core/usb.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "defenses/masked_trigger.h"
#include "defenses/neural_cleanse.h"
#include "defenses/scan_plan.h"
#include "defenses/tabor.h"
#include "nn/models.h"
#include "report_identity.h"

namespace usb {
namespace {

DatasetSpec tiny_spec(std::int64_t num_classes = 10) {
  DatasetSpec spec;
  spec.name = "scan-scheduler-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = num_classes;
  return spec;
}

/// A smoke-budget USB configuration: one UAP pass, a few refinement steps.
UsbConfig tiny_usb_config() {
  UsbConfig config;
  config.uap.max_passes = 1;
  config.uap.craft_size = 32;
  config.uap.batch_size = 16;
  config.refine_steps = 4;
  config.batch_size = 8;
  return config;
}

/// A per-class task that never touches the model: its statistic is
/// 10 + class and its refinement only counts steps.
class StubTask final : public ClassRefineTask {
 public:
  explicit StubTask(const ClassScanJob& job) : job_(job) {}

  std::int64_t run_steps(std::int64_t steps) override { return steps; }
  [[nodiscard]] double current_mask_l1() const override {
    return 10.0 + static_cast<double>(job_.target_class);
  }
  [[nodiscard]] TriggerEstimate finalize() override {
    TriggerEstimate estimate;
    estimate.target_class = job_.target_class;
    estimate.pattern = Tensor(Shape{1, 16, 16});
    estimate.mask = Tensor(Shape{16, 16});
    estimate.mask_l1 = current_mask_l1();
    return estimate;
  }

 private:
  ClassScanJob job_;
};

ScanPlan stub_plan(std::uint64_t base_seed, RefineTaskFn make_task) {
  ScanPlan plan;
  plan.method = "stub";
  plan.options.base_seed = base_seed;
  plan.total_steps = 3;
  plan.make_task = std::move(make_task);
  return plan;
}

TEST(ProbeBatchCache, MatchesFreshDataLoaderPass) {
  const Dataset probe = generate_dataset(tiny_spec(), 70, 41);
  const ProbeBatchCache cache(probe, 32);
  EXPECT_EQ(cache.total_samples(), 70);
  ASSERT_EQ(cache.batches().size(), 3U);  // 32 + 32 + 6

  DataLoader loader(probe, 32, /*shuffle=*/false, /*seed=*/0);
  Batch batch;
  std::size_t i = 0;
  while (loader.next(batch)) {
    ASSERT_LT(i, cache.batches().size());
    EXPECT_TRUE(cache.batches()[i].images.equals(batch.images));
    EXPECT_EQ(cache.batches()[i].labels, batch.labels);
    ++i;
  }
  EXPECT_EQ(i, cache.batches().size());
}

TEST(ProbeBatchCache, EmptyProbeSet) {
  const Dataset probe = generate_dataset(tiny_spec(), 0, 42);
  const ProbeBatchCache cache(probe);
  EXPECT_EQ(cache.total_samples(), 0);
  EXPECT_TRUE(cache.batches().empty());

  Network model = make_network(Architecture::kBasicCnn, 1, 16, 10, 43);
  model.freeze();
  Rng rng(44);
  const MaskedTrigger trigger(1, 16, rng, 0.1F);
  TensorArena arena;
  EXPECT_EQ(fooling_rate(model, cache, trigger, 0, arena), 0.0);
}

TEST(ClassScanScheduler, ClassStreamSeedsAreStableAndDistinct) {
  const std::uint64_t a0 = class_stream_seed(7, 0);
  EXPECT_EQ(a0, class_stream_seed(7, 0));  // pure function
  // Distinct across classes and across base seeds.
  EXPECT_NE(a0, class_stream_seed(7, 1));
  EXPECT_NE(a0, class_stream_seed(8, 0));
}

TEST(ClassScanScheduler, OrderedReductionFeedsMadInClassOrder) {
  const Dataset probe = generate_dataset(tiny_spec(4), 24, 45);
  Network model = make_network(Architecture::kBasicCnn, 1, 16, 4, 46);

  const DetectionReport report = run_scan_plan(
      stub_plan(5,
                [](const Network&, const Dataset&, const ClassScanJob& job) {
                  return std::make_unique<StubTask>(job);
                }),
      model, probe, ThreadPool::global());
  ASSERT_EQ(report.per_class.size(), 4U);
  ASSERT_EQ(report.verdict.norms.size(), 4U);
  for (std::int64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(report.per_class[static_cast<std::size_t>(t)].target_class, t);
    EXPECT_EQ(report.verdict.norms[static_cast<std::size_t>(t)],
              10.0 + static_cast<double>(t));
  }
}

TEST(ClassScanScheduler, JobsReceiveSharedCacheAndPerClassSeeds) {
  const Dataset probe = generate_dataset(tiny_spec(3), 18, 47);
  Network model = make_network(Architecture::kBasicCnn, 1, 16, 3, 48);

  std::vector<std::uint64_t> seeds(3, 0);
  std::vector<const ProbeBatchCache*> caches(3, nullptr);
  std::vector<std::int64_t> cache_samples(3, 0);
  // The cache lives in the scan's frame, so it must be read inside the task
  // factory; only the pointer VALUES survive for the shared-identity check.
  (void)run_scan_plan(stub_plan(11,
                                [&](const Network&, const Dataset&, const ClassScanJob& job) {
                                  const auto index = static_cast<std::size_t>(job.target_class);
                                  seeds[index] = job.rng_seed;
                                  caches[index] = job.probe_cache;
                                  cache_samples[index] = job.probe_cache->total_samples();
                                  return std::make_unique<StubTask>(job);
                                }),
                      model, probe, ThreadPool::global());
  for (std::int64_t t = 0; t < 3; ++t) {
    EXPECT_EQ(seeds[static_cast<std::size_t>(t)], class_stream_seed(11, t));
    ASSERT_NE(caches[static_cast<std::size_t>(t)], nullptr);
    EXPECT_EQ(cache_samples[static_cast<std::size_t>(t)], 18);
  }
  // One shared cache, not one per job.
  EXPECT_EQ(caches[0], caches[1]);
  EXPECT_EQ(caches[1], caches[2]);
}

// The satellite regression test: UsbDetector::detect on a small synthetic
// model produces an identical DetectionReport under USB_THREADS=1 vs
// USB_THREADS=4 (explicitly sized pools passed to detect()).
TEST(ClassScanScheduler, UsbDetectorBitIdenticalAcrossThreadCounts) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 64, 51);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 10, 52);

  ThreadPool pool_1(1);
  ThreadPool pool_4(4);

  const UsbDetector usb(tiny_usb_config());
  const DetectionReport single = usb.detect(victim, probe, pool_1);
  const DetectionReport parallel = usb.detect(victim, probe, pool_4);

  ASSERT_EQ(single.per_class.size(), 10U);
  expect_reports_identical(single, parallel);
}

TEST(ClassScanScheduler, NcAndTaborBitIdenticalAcrossThreadCounts) {
  const DatasetSpec spec = tiny_spec(6);
  const Dataset probe = generate_dataset(spec, 48, 53);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 6, 54);

  ThreadPool pool_1(1);
  ThreadPool pool_4(4);

  ReverseOptConfig nc_config;
  nc_config.steps = 6;
  const NeuralCleanse nc(nc_config);
  const DetectionReport nc_single = nc.detect(victim, probe, pool_1);
  const DetectionReport nc_parallel = nc.detect(victim, probe, pool_4);
  expect_reports_identical(nc_single, nc_parallel);

  TaborConfig tabor_config;
  tabor_config.base.steps = 4;
  const Tabor tabor(tabor_config);
  const DetectionReport tabor_single = tabor.detect(victim, probe, pool_1);
  const DetectionReport tabor_parallel = tabor.detect(victim, probe, pool_4);
  expect_reports_identical(tabor_single, tabor_parallel);
}

// Single-class entry points must reproduce the parallel scan exactly, for
// every detector (the per-class stream roots depend only on the base seed
// and the class).
enum class DetectorKind { kUsb, kNc, kTabor };

/// Calls `body` with a smoke-budget detector of `kind`, by its concrete type.
template <typename Body>
void with_tiny_detector(DetectorKind kind, Body&& body) {
  switch (kind) {
    case DetectorKind::kUsb: {
      UsbDetector usb(tiny_usb_config());
      body(usb);
      return;
    }
    case DetectorKind::kNc: {
      ReverseOptConfig config;
      config.steps = 4;
      NeuralCleanse nc(config);
      body(nc);
      return;
    }
    case DetectorKind::kTabor: {
      TaborConfig config;
      config.base.steps = 3;
      Tabor tabor(config);
      body(tabor);
      return;
    }
  }
}

class SingleClassEntry : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(SingleClassEntry, MatchesEveryClassOfTheScanBitForBit) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 32, 55);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 56);

  with_tiny_detector(GetParam(), [&](auto& detector) {
    const DetectionReport report = detector.detect(victim, probe);
    ASSERT_EQ(report.per_class.size(), 4U);
    for (std::int64_t t = 0; t < 4; ++t) {
      expect_estimates_identical(report.per_class[static_cast<std::size_t>(t)],
                                 detector.reverse_engineer_class(victim, probe, t));
    }
  });
}

// A target outside the model's classes is refused up front: unchecked,
// USB's Alg. 1 writes its one-hot selector past the model's logits.
TEST_P(SingleClassEntry, RejectsATargetOutsideTheModel) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 32, 55);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 56);

  with_tiny_detector(GetParam(), [&](auto& detector) {
    for (const std::int64_t target : {std::int64_t{-1}, std::int64_t{4}, std::int64_t{6}}) {
      EXPECT_THROW((void)detector.reverse_engineer_class(victim, probe, target),
                   std::invalid_argument)
          << "target " << target;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Detectors, SingleClassEntry,
                         ::testing::Values(DetectorKind::kUsb, DetectorKind::kNc,
                                           DetectorKind::kTabor),
                         [](const ::testing::TestParamInfo<DetectorKind>& info) {
                           switch (info.param) {
                             case DetectorKind::kUsb: return "USB";
                             case DetectorKind::kNc: return "NC";
                             case DetectorKind::kTabor: return "TABOR";
                           }
                           return "unknown";
                         });

// USB's transfer entry (Alg. 2 from a given UAP), handed the UAP Alg. 1
// crafts for the class, reproduces the scan's class too: Alg. 1 is
// bit-identical with or without the scan's shared prefix and arena.
TEST(ClassScanScheduler, UsbTransferOfTheCraftedUapMatchesScan) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 32, 55);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 56);

  const UsbConfig config = tiny_usb_config();
  UsbDetector usb(config);
  const DetectionReport report = usb.detect(victim, probe);
  ASSERT_EQ(report.per_class.size(), 4U);
  for (std::int64_t t = 0; t < 4; ++t) {
    const Tensor uap = targeted_uap(victim, probe, t, config.uap).perturbation;
    expect_estimates_identical(report.per_class[static_cast<std::size_t>(t)],
                               usb.reverse_engineer_class(victim, probe, t, uap));
  }
}

// An externally injected probe cache (the service sets its ProbeStore
// entry's) must not change any bit of the report either.
TEST(ClassScanScheduler, ExternalProbeCacheBitIdentical) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 36, 63);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 64);

  ReverseOptConfig config;
  config.steps = 6;
  NeuralCleanse detector(config);
  const DetectionReport fresh = detector.detect(victim, probe);

  // Batched at kEvalBatchSize, so the scan adopts it instead of its own.
  const ProbeBatchCache shared(probe);
  ScanPlan plan = detector.plan();
  plan.options.external_probe_cache = &shared;
  const DetectionReport cached = run_scan_plan(plan, victim, probe, ThreadPool::global());
  const DetectionReport cached_again =
      run_scan_plan(plan, victim, probe, ThreadPool::global());

  expect_reports_identical(fresh, cached);
  expect_reports_identical(fresh, cached_again);
}

// Round-sliced refinement must concatenate bit-identically to one
// uninterrupted run: with a margin no statistic can exceed, early exit
// retires nothing and the report must equal the monolithic path's exactly.
TEST(ClassScanScheduler, EarlyExitNeverRetiringMatchesMonolithicRun) {
  const DatasetSpec spec = tiny_spec(5);
  const Dataset probe = generate_dataset(spec, 40, 65);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 5, 66);

  UsbConfig config = tiny_usb_config();
  config.refine_steps = 6;
  const DetectionReport monolithic = UsbDetector(config).detect(victim, probe);

  config.early_exit.enabled = true;
  config.early_exit.round_steps = 2;  // three barriers, none may retire
  config.early_exit.margin = 1e18;
  const DetectionReport sliced = UsbDetector(config).detect(victim, probe);
  expect_reports_identical(monolithic, sliced);
}

// With an aggressive margin classes DO retire early; the report is then
// allowed to differ from the monolithic one (budget was reclaimed) but must
// still be bit-identical across thread counts.
TEST(ClassScanScheduler, EarlyExitBitIdenticalAcrossThreadCounts) {
  const DatasetSpec spec = tiny_spec(6);
  const Dataset probe = generate_dataset(spec, 48, 67);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 6, 68);

  ThreadPool pool_1(1);
  ThreadPool pool_4(4);

  UsbConfig config = tiny_usb_config();
  config.refine_steps = 8;
  config.early_exit.enabled = true;
  config.early_exit.round_steps = 2;
  config.early_exit.margin = 0.25;

  const DetectionReport single = UsbDetector(config).detect(victim, probe, pool_1);
  const DetectionReport parallel = UsbDetector(config).detect(victim, probe, pool_4);
  expect_reports_identical(single, parallel);

  ReverseOptConfig nc_config;
  nc_config.steps = 8;
  nc_config.early_exit.enabled = true;
  nc_config.early_exit.round_steps = 2;
  nc_config.early_exit.margin = 0.25;
  const DetectionReport nc_single = NeuralCleanse(nc_config).detect(victim, probe, pool_1);
  const DetectionReport nc_parallel = NeuralCleanse(nc_config).detect(victim, probe, pool_4);
  expect_reports_identical(nc_single, nc_parallel);
}

// wall_seconds is the end-to-end measure detect() callers actually wait;
// it must be populated on every scan path.
TEST(ClassScanScheduler, ReportsCarryEndToEndWallSeconds) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 32, 75);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 76);

  ReverseOptConfig config;
  config.steps = 4;
  const DetectionReport monolithic = NeuralCleanse(config).detect(victim, probe);
  EXPECT_GT(monolithic.wall_seconds, 0.0);
  EXPECT_GT(monolithic.total_seconds(), 0.0);

  config.early_exit.enabled = true;
  config.early_exit.round_steps = 2;
  const DetectionReport rounds = NeuralCleanse(config).detect(victim, probe);
  EXPECT_GT(rounds.wall_seconds, 0.0);
}

TEST(ClassScanScheduler, DetectOnEmptyProbeIsWellDefined) {
  const DatasetSpec spec = tiny_spec(4);
  const Dataset probe = generate_dataset(spec, 0, 57);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 58);

  ReverseOptConfig config;
  config.steps = 3;
  NeuralCleanse nc(config);
  const DetectionReport report = nc.detect(victim, probe);
  ASSERT_EQ(report.per_class.size(), 4U);
  for (const TriggerEstimate& estimate : report.per_class) {
    EXPECT_EQ(estimate.fooling_rate, 0.0);  // no probe samples to fool
    EXPECT_GT(estimate.mask_l1, 0.0);       // trigger stays at its random init
  }
  // Near-identical random-init statistics: nothing is a low-side outlier.
  EXPECT_FALSE(report.verdict.backdoored);
}

// Every class runs on the caller's one frozen network, and the scan still
// reduces to the report detect() produces.
TEST(StagedScan, ClassesShareTheModelWithoutCloning) {
  const DatasetSpec spec = tiny_spec(3);
  const Dataset probe = generate_dataset(spec, 24, 77);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 3, 78);

  ReverseOptConfig config;
  config.steps = 4;
  const NeuralCleanse nc(config);
  const DetectionReport direct = NeuralCleanse(config).detect(victim, probe);  // freezes

  StagedScan scan(nc.plan(), victim, probe);
  scan.prepare();
  for (std::int64_t t = 0; t < 3; ++t) scan.construct_class(t);
  for (std::int64_t t = 0; t < 3; ++t) {
    while (scan.run_round(t)) {
    }
    scan.finalize_class(t);
  }
  expect_reports_identical(direct, scan.take_report());
}

// A scan runs K tasks' passes on the model at once, which is sound only in
// the frozen state (nothing written to the network); a trainable one is
// refused up front.
TEST(StagedScan, RejectsAModelThatIsNotFrozen) {
  const DatasetSpec spec = tiny_spec(3);
  const Dataset probe = generate_dataset(spec, 24, 79);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 3, 80);
  ReverseOptConfig config;
  config.steps = 2;
  const NeuralCleanse nc(config);
  EXPECT_THROW(StagedScan(nc.plan(), victim, probe), std::invalid_argument);
  victim.set_training(false);  // eval mode alone is not frozen
  EXPECT_THROW(StagedScan(nc.plan(), victim, probe), std::invalid_argument);
  victim.set_param_grads_enabled(false);
  EXPECT_NO_THROW(StagedScan(nc.plan(), victim, probe));
}

// The scan sizes its per-class state by the probe's classes and every
// pass by the model's, so the two must agree: unchecked, a 6-class probe on
// a 4-class model writes past USB's scan-prefix selector inside detect().
TEST(StagedScan, RejectsAProbeWhoseClassCountDiffersFromTheModel) {
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, 4, 81);
  const Dataset wider = generate_dataset(tiny_spec(6), 24, 82);
  EXPECT_THROW((void)UsbDetector(tiny_usb_config()).detect(victim, wider), std::invalid_argument);

  ReverseOptConfig config;
  config.steps = 2;
  const NeuralCleanse nc(config);
  EXPECT_THROW((void)nc.detect(victim, wider), std::invalid_argument);
  const Dataset narrower = generate_dataset(tiny_spec(3), 24, 83);
  EXPECT_THROW(StagedScan(nc.plan(), victim, narrower), std::invalid_argument);
  const Dataset matching = generate_dataset(tiny_spec(4), 24, 84);
  EXPECT_NO_THROW(StagedScan(nc.plan(), victim, matching));
}

}  // namespace
}  // namespace usb
