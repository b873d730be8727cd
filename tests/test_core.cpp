// Core-pipeline tests: targeted DeepFool flips samples, Alg. 1 crafts
// working targeted UAPs, the UAP decomposition is sane, and the full USB
// detector separates a backdoored MNIST victim from a clean one end to end.
#include <gtest/gtest.h>

#include "attacks/badnet.h"
#include "core/deepfool.h"
#include "core/targeted_uap.h"
#include "core/usb.h"
#include "data/synthetic.h"
#include "nn/trainer.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

/// Shared tiny victims (expensive to train once per test -> build once).
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = DatasetSpec::mnist_like();
    const Dataset train_set = generate_dataset(spec_, 1500, 101);
    test_set_ = new Dataset(generate_dataset(spec_, 300, 102));
    probe_ = new Dataset(generate_dataset(spec_, 200, 103));

    TrainConfig config;
    config.epochs = 5;
    config.seed = 104;

    clean_ = new Network(make_network(Architecture::kBasicCnn, 1, 28, 10, 105));
    (void)train_network(*clean_, train_set, config);

    BadNetConfig badnet_config;
    badnet_config.trigger_size = 3;
    badnet_config.target_class = 4;
    badnet_config.poison_rate = 0.20;
    badnet_config.seed = 106;
    attack_ = new BadNet(badnet_config, spec_);
    backdoored_ = new Network(make_network(Architecture::kBasicCnn, 1, 28, 10, 107));
    (void)attack_->train_backdoored(*backdoored_, train_set, config);
    // Alg. 1 and the detectors run on frozen networks only.
    clean_->freeze();
    backdoored_->freeze();
  }

  static void TearDownTestSuite() {
    delete clean_;
    delete backdoored_;
    delete attack_;
    delete test_set_;
    delete probe_;
    clean_ = backdoored_ = nullptr;
    attack_ = nullptr;
    test_set_ = probe_ = nullptr;
  }

  static DatasetSpec spec_;
  static Network* clean_;
  static Network* backdoored_;
  static BadNet* attack_;
  static Dataset* test_set_;
  static Dataset* probe_;
};

DatasetSpec CoreFixture::spec_;
Network* CoreFixture::clean_ = nullptr;
Network* CoreFixture::backdoored_ = nullptr;
BadNet* CoreFixture::attack_ = nullptr;
Dataset* CoreFixture::test_set_ = nullptr;
Dataset* CoreFixture::probe_ = nullptr;

TEST_F(CoreFixture, VictimsAreHealthy) {
  EXPECT_GT(evaluate_accuracy(*clean_, *test_set_), 0.9F);
  EXPECT_GT(evaluate_accuracy(*backdoored_, *test_set_), 0.9F);
  EXPECT_GT(attack_->success_rate(*backdoored_, *test_set_), 0.85F);
}

TEST_F(CoreFixture, InputGradientMatchesSelectorSemantics) {
  // d(sum of selected logits)/dx must be nonzero and depend on the selector.
  const Tensor x = probe_->gather_images(std::vector<std::int64_t>{0, 1});
  Tensor sel_a(Shape{2, 10});
  sel_a[0 * 10 + 3] = 1.0F;
  sel_a[1 * 10 + 3] = 1.0F;
  Tensor sel_b(Shape{2, 10});
  sel_b[0 * 10 + 7] = 1.0F;
  sel_b[1 * 10 + 7] = 1.0F;
  TensorArena arena;
  (void)clean_->forward_into(x, arena);
  const Tensor& grad_a = clean_->backward_into(sel_a, arena);
  const Tensor& grad_b = clean_->backward_into(sel_b, arena);  // repeats over one forward
  EXPECT_GT(grad_a.abs_sum(), 0.0F);
  EXPECT_FALSE(grad_a.equals(grad_b));
}

TEST_F(CoreFixture, TargetedDeepFoolFlipsMostRows) {
  const Tensor batch = probe_->gather_images(std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7});
  DeepFoolConfig config;
  config.max_iterations = 25;  // generous budget for a hard target
  const std::int64_t target = 8;
  const Tensor perturbation = targeted_deepfool(*clean_, batch, target, config);

  // The perturbation it returns sends most of the batch to the target.
  Tensor adv = batch;
  adv += perturbation;
  adv.clamp(0.0F, 1.0F);
  std::int64_t hits = 0;
  TensorArena arena;
  for (const std::int64_t pred : argmax_rows(clean_->forward_into(adv, arena))) {
    if (pred == target) ++hits;
  }
  EXPECT_GE(hits, 5);
}

TEST_F(CoreFixture, DeepFoolLeavesAlreadyTargetRowsAlone) {
  // Rows already classified as the target get zero perturbation.
  TensorArena arena;
  const std::vector<std::int64_t> preds =
      argmax_rows(clean_->forward_into(probe_->images(), arena));
  std::int64_t row = -1;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == 5) {
      row = static_cast<std::int64_t>(i);
      break;
    }
  }
  ASSERT_GE(row, 0) << "probe contains no sample classified 5";
  const Tensor x = probe_->gather_images(std::vector<std::int64_t>{row});
  const Tensor perturbation = targeted_deepfool(*clean_, x, 5);
  EXPECT_EQ(perturbation.abs_sum(), 0.0F);

  // ... and stays at the target.
  Tensor adv = x;
  adv += perturbation;
  adv.clamp(0.0F, 1.0F);
  EXPECT_EQ(argmax_rows(clean_->forward_into(adv, arena)), std::vector<std::int64_t>{5});
}

TEST_F(CoreFixture, TargetedUapReachesDesiredRate) {
  TargetedUapConfig config;
  config.desired_rate = 0.5;
  config.max_passes = 6;
  const TargetedUapResult result = targeted_uap(*backdoored_, *probe_, 4, config);
  EXPECT_GE(result.fooling_rate, 0.5);
  EXPECT_EQ(result.perturbation.shape(), (Shape{1, 1, 28, 28}));
}

TEST_F(CoreFixture, BackdooredUapSmallerThanCleanUap) {
  // The paper's core observation, asserted quantitatively: toward the
  // BACKDOOR TARGET the backdoored model needs a smaller UAP than the clean
  // model needs toward the same class.
  TargetedUapConfig config;
  const TargetedUapResult on_backdoored = targeted_uap(*backdoored_, *probe_, 4, config);
  const TargetedUapResult on_clean = targeted_uap(*clean_, *probe_, 4, config);
  EXPECT_LT(on_backdoored.perturbation.l2_norm(), on_clean.perturbation.l2_norm());
}

TEST_F(CoreFixture, DecomposeUapProducesValidInit) {
  UsbDetector usb{UsbConfig{}};
  Tensor uap(Shape{1, 1, 28, 28});
  Rng rng(7);
  for (std::int64_t i = 0; i < uap.numel(); ++i) uap[i] = rng.uniform_float(-0.5F, 0.5F);
  const UsbDetector::Decomposition decomposition = usb.decompose_uap(uap);
  EXPECT_EQ(decomposition.mask.shape(), (Shape{28, 28}));
  EXPECT_EQ(decomposition.pattern.shape(), (Shape{1, 28, 28}));
  EXPECT_GE(decomposition.mask.min(), 0.0F);
  EXPECT_LE(decomposition.mask.max(), 1.0F);
  EXPECT_GE(decomposition.pattern.min(), 0.0F);
  EXPECT_LE(decomposition.pattern.max(), 1.0F);
}

TEST_F(CoreFixture, UsbSeparatesBackdooredFromClean) {
  UsbConfig config;
  config.refine_steps = 80;  // test-budget detection
  UsbDetector usb{config};

  const DetectionReport on_backdoored = usb.detect(*backdoored_, *probe_);
  EXPECT_TRUE(on_backdoored.verdict.backdoored);
  const TargetOutcome outcome = classify_target(on_backdoored.verdict, 4);
  EXPECT_TRUE(outcome == TargetOutcome::kCorrect || outcome == TargetOutcome::kCorrectSet)
      << "flagged classes do not include the true target";

  const DetectionReport on_clean = usb.detect(*clean_, *probe_);
  EXPECT_FALSE(on_clean.verdict.backdoored);
}

TEST_F(CoreFixture, PrecomputedUapSkipsAlgorithmOne) {
  UsbConfig config;
  config.refine_steps = 40;
  UsbDetector usb{config};
  const TargetedUapResult uap = targeted_uap(*backdoored_, *probe_, 4, config.uap);
  const TriggerEstimate with_transfer =
      usb.reverse_engineer_class(*backdoored_, *probe_, 4, uap.perturbation);
  EXPECT_GT(with_transfer.fooling_rate, 0.8);
  EXPECT_LT(with_transfer.mask_l1, 784.0);  // sane mask
}

TEST_F(CoreFixture, ReportExposesPerClassTimings) {
  UsbConfig config;
  config.refine_steps = 10;
  config.uap.max_passes = 1;
  UsbDetector usb{config};
  const DetectionReport report = usb.detect(*clean_, *probe_);
  ASSERT_EQ(report.per_class_seconds.size(), 10U);
  EXPECT_GT(report.total_seconds(), 0.0);
  const Tensor trigger = report.reversed_trigger(0);
  EXPECT_EQ(trigger.shape(), (Shape{1, 28, 28}));
  EXPECT_THROW((void)report.reversed_trigger(99), std::out_of_range);
}

}  // namespace
}  // namespace usb
