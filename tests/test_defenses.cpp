// Defense-level tests: NC and TABOR reverse engineering on a small victim,
// verdict plumbing through the parallel per-class driver, and timing
// bookkeeping. (The USB detector has its own suite in test_core.cpp.)
#include <gtest/gtest.h>

#include "attacks/badnet.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "nn/trainer.h"

namespace usb {
namespace {

/// One backdoored victim shared by the suite.
class DefenseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = DatasetSpec::mnist_like();
    const Dataset train_set = generate_dataset(spec_, 1500, 201);
    probe_ = new Dataset(generate_dataset(spec_, 200, 202));

    BadNetConfig config;
    config.trigger_size = 3;
    config.target_class = 6;
    config.poison_rate = 0.20;
    config.seed = 203;
    BadNet attack(config, spec_);
    victim_ = new Network(make_network(Architecture::kBasicCnn, 1, 28, 10, 204));
    TrainConfig train_config;
    train_config.epochs = 5;
    train_config.seed = 205;
    (void)attack.train_backdoored(*victim_, train_set, train_config);
    asr_ = attack.success_rate(*victim_, generate_dataset(spec_, 200, 206));
  }

  static void TearDownTestSuite() {
    delete victim_;
    delete probe_;
    victim_ = nullptr;
    probe_ = nullptr;
  }

  static DatasetSpec spec_;
  static Network* victim_;
  static Dataset* probe_;
  static float asr_;
};

DatasetSpec DefenseFixture::spec_;
Network* DefenseFixture::victim_ = nullptr;
Dataset* DefenseFixture::probe_ = nullptr;
float DefenseFixture::asr_ = 0.0F;

TEST_F(DefenseFixture, VictimCarriesBackdoor) { EXPECT_GT(asr_, 0.8F); }

TEST_F(DefenseFixture, NcFindsSmallTriggerForTargetClass) {
  ReverseOptConfig config;
  config.steps = 80;
  NeuralCleanse nc{config};
  const TriggerEstimate target_est = nc.reverse_engineer_class(*victim_, *probe_, 6);
  const TriggerEstimate other_est = nc.reverse_engineer_class(*victim_, *probe_, 3);
  // The backdoored class admits a much smaller high-fooling trigger.
  EXPECT_GT(target_est.fooling_rate, 0.9);
  EXPECT_LT(target_est.mask_l1, other_est.mask_l1);
}

TEST_F(DefenseFixture, NcEstimateShapesAndRanges) {
  ReverseOptConfig config;
  config.steps = 20;
  NeuralCleanse nc{config};
  const TriggerEstimate est = nc.reverse_engineer_class(*victim_, *probe_, 0);
  EXPECT_EQ(est.mask.shape(), (Shape{28, 28}));
  EXPECT_EQ(est.pattern.shape(), (Shape{1, 28, 28}));
  EXPECT_GE(est.mask.min(), 0.0F);
  EXPECT_LE(est.mask.max(), 1.0F);
  EXPECT_GE(est.pattern.min(), 0.0F);
  EXPECT_LE(est.pattern.max(), 1.0F);
  EXPECT_GE(est.fooling_rate, 0.0);
  EXPECT_LE(est.fooling_rate, 1.0);
}

TEST_F(DefenseFixture, TaborFindsSmallTriggerForTargetClass) {
  TaborConfig config;
  config.base.steps = 80;
  Tabor tabor{config};
  const TriggerEstimate target_est = tabor.reverse_engineer_class(*victim_, *probe_, 6);
  const TriggerEstimate other_est = tabor.reverse_engineer_class(*victim_, *probe_, 3);
  // TABOR's blocking/overlay regularizers trade some fooling rate for
  // trigger quality; the separation property is what matters.
  EXPECT_GT(target_est.fooling_rate, 0.5);
  EXPECT_LT(target_est.mask_l1, other_est.mask_l1);
}

TEST_F(DefenseFixture, DetectReportsEveryClassWithTimings) {
  ReverseOptConfig config;
  config.steps = 15;  // smoke-budget full detection
  NeuralCleanse nc{config};
  const DetectionReport report = nc.detect(*victim_, *probe_);
  EXPECT_EQ(report.method, "NC");
  ASSERT_EQ(report.per_class.size(), 10U);
  ASSERT_EQ(report.per_class_seconds.size(), 10U);
  ASSERT_EQ(report.verdict.norms.size(), 10U);
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(report.per_class[t].target_class, static_cast<std::int64_t>(t));
    EXPECT_GE(report.per_class_seconds[t], 0.0);
    EXPECT_EQ(report.verdict.norms[t], report.per_class[t].mask_l1);
  }
}

TEST_F(DefenseFixture, FullNcDetectionFlagsVictim) {
  ReverseOptConfig config;
  config.steps = 80;
  NeuralCleanse nc{config};
  const DetectionReport report = nc.detect(*victim_, *probe_);
  EXPECT_TRUE(report.verdict.backdoored);
  const TargetOutcome outcome = classify_target(report.verdict, 6);
  EXPECT_TRUE(outcome == TargetOutcome::kCorrect || outcome == TargetOutcome::kCorrectSet);
}

TEST_F(DefenseFixture, EarlyExitKeepsVerdictOnBackdooredVictim) {
  // Early exit trades refinement budget for time on classes that can no
  // longer become low-side outliers; the verdict on a genuinely backdoored
  // model must survive that trade.
  ReverseOptConfig config;
  config.steps = 80;
  const DetectionReport full = NeuralCleanse(config).detect(*victim_, *probe_);

  config.early_exit.enabled = true;
  config.early_exit.round_steps = 16;
  config.early_exit.min_rounds = 1;
  config.early_exit.margin = 0.25;
  const DetectionReport early = NeuralCleanse(config).detect(*victim_, *probe_);

  EXPECT_TRUE(full.verdict.backdoored);
  EXPECT_EQ(early.verdict.backdoored, full.verdict.backdoored);
  EXPECT_EQ(early.verdict.flagged_classes, full.verdict.flagged_classes);
  const TargetOutcome outcome = classify_target(early.verdict, 6);
  EXPECT_TRUE(outcome == TargetOutcome::kCorrect || outcome == TargetOutcome::kCorrectSet);
}

}  // namespace
}  // namespace usb
