// Tests for the three backdoor attacks: poisoning semantics, trigger
// stamping, input-awareness, and end-to-end injection (train a small victim
// and require high ASR with preserved clean accuracy).
#include <stdexcept>

#include <gtest/gtest.h>

#include "attacks/badnet.h"
#include "attacks/factory.h"
#include "attacks/iad.h"
#include "attacks/latent.h"
#include "data/synthetic.h"
#include "nn/trainer.h"

namespace usb {
namespace {

DatasetSpec small_spec() { return DatasetSpec::mnist_like(); }

TEST(BadNetAttack, PatchGeometryAndDeterminism) {
  const DatasetSpec spec = small_spec();
  BadNetConfig config;
  config.trigger_size = 3;
  config.seed = 5;
  const BadNet a(config, spec);
  const BadNet b(config, spec);
  EXPECT_EQ(a.position_y(), b.position_y());
  EXPECT_EQ(a.position_x(), b.position_x());
  EXPECT_TRUE(a.patch().equals(b.patch()));
  EXPECT_LE(a.position_y() + 3, spec.image_size);
  EXPECT_LE(a.position_x() + 3, spec.image_size);

  BadNetConfig other = config;
  other.seed = 6;
  const BadNet c(other, spec);
  EXPECT_FALSE(a.patch().equals(c.patch()));
}

TEST(BadNetAttack, RejectsOversizedTrigger) {
  BadNetConfig config;
  config.trigger_size = 99;
  EXPECT_THROW(BadNet(config, small_spec()), std::invalid_argument);
}

TEST(BadNetAttack, ApplyTriggerOnlyTouchesPatch) {
  const DatasetSpec spec = small_spec();
  BadNetConfig config;
  config.trigger_size = 2;
  BadNet attack(config, spec);
  const Dataset data = generate_dataset(spec, 4, 1);
  Tensor stamped = attack.apply_trigger(data.images());
  std::int64_t changed = 0;
  for (std::int64_t i = 0; i < stamped.numel(); ++i) {
    if (stamped[i] != data.images()[i]) ++changed;
  }
  // At most patch area per sample per channel can change.
  EXPECT_LE(changed, 4 * spec.channels * 4);
  EXPECT_GT(changed, 0);
}

TEST(BadNetAttack, PoisonDatasetFlipsLabelsAtGivenRate) {
  const DatasetSpec spec = small_spec();
  BadNetConfig config;
  config.trigger_size = 2;
  config.target_class = 7;
  config.poison_rate = 0.25;
  BadNet attack(config, spec);
  const Dataset clean = generate_dataset(spec, 200, 2);
  const Dataset poisoned = attack.poison_dataset(clean);
  ASSERT_EQ(poisoned.size(), clean.size());

  std::int64_t relabeled = 0;
  for (std::int64_t i = 0; i < clean.size(); ++i) {
    if (clean.label(i) != poisoned.label(i)) {
      ++relabeled;
      EXPECT_EQ(poisoned.label(i), 7);
    }
  }
  // 25% selected; some already carry label 7 so the relabel count is close
  // to but at most 50.
  EXPECT_GE(relabeled, 35);
  EXPECT_LE(relabeled, 50);
}

TEST(BadNetAttack, TriggerImageMatchesPatch) {
  const DatasetSpec spec = small_spec();
  BadNetConfig config;
  config.trigger_size = 2;
  BadNet attack(config, spec);
  const Tensor image = attack.trigger_image();
  EXPECT_EQ(image.shape(), (Shape{1, 28, 28}));
  EXPECT_NEAR(image.abs_sum(), attack.patch().abs_sum(), 1e-5F);
}

TEST(IadAttack, TriggersAreInputDependent) {
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  IadConfig config;
  Iad attack(config, spec);
  const Dataset data = generate_dataset(spec, 8, 3);
  const Tensor fields = attack.trigger_field(data.images());
  ASSERT_EQ(fields.shape(), data.images().shape());
  // Compare trigger fields of two different images: must differ noticeably.
  const std::int64_t numel = spec.image_numel();
  double diff = 0.0;
  for (std::int64_t i = 0; i < numel; ++i) {
    diff += std::abs(fields[i] - fields[numel + i]);
  }
  EXPECT_GT(diff / static_cast<double>(numel), 1e-3);
}

TEST(IadAttack, StampStaysInRange) {
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  Iad attack(IadConfig{}, spec);
  const Dataset data = generate_dataset(spec, 4, 4);
  const Tensor stamped = attack.apply_trigger(data.images());
  EXPECT_GE(stamped.min(), 0.0F);
  EXPECT_LE(stamped.max(), 1.0F);
}

TEST(AttackFactory, BuildsEveryKind) {
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  AttackParams params;
  params.kind = AttackKind::kNone;
  EXPECT_EQ(make_attack(params, spec), nullptr);
  params.kind = AttackKind::kBadNet;
  EXPECT_EQ(make_attack(params, spec)->name(), "badnet");
  params.kind = AttackKind::kLatent;
  EXPECT_EQ(make_attack(params, spec)->name(), "latent");
  params.kind = AttackKind::kIad;
  EXPECT_EQ(make_attack(params, spec)->name(), "iad");
}

// A target outside [0, num_classes) would train labels the loss cannot
// index; every attack refuses it at construction, before any training.
TEST(AttackFactory, RejectsTargetOutOfRange) {
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  for (const AttackKind kind : {AttackKind::kBadNet, AttackKind::kLatent, AttackKind::kIad}) {
    AttackParams params;
    params.kind = kind;
    for (const std::int64_t target : {spec.num_classes, std::int64_t{-1}}) {
      params.target_class = target;
      EXPECT_THROW((void)make_attack(params, spec), std::invalid_argument)
          << to_string(kind) << " target " << target;
    }
    params.target_class = spec.num_classes - 1;
    EXPECT_NO_THROW((void)make_attack(params, spec)) << to_string(kind);
  }
}

TEST(AttackFactory, KindStrings) {
  EXPECT_EQ(to_string(AttackKind::kNone), "clean");
  EXPECT_EQ(to_string(AttackKind::kBadNet), "badnet");
  EXPECT_EQ(to_string(AttackKind::kLatent), "latent");
  EXPECT_EQ(to_string(AttackKind::kIad), "iad");
}

// End-to-end injection: each attack must reach high ASR without destroying
// clean accuracy on a small MNIST BasicCnn victim.
class InjectionTest : public ::testing::TestWithParam<AttackKind> {};

TEST_P(InjectionTest, HighAsrPreservedAccuracy) {
  const DatasetSpec spec = small_spec();
  const Dataset train_set = generate_dataset(spec, 1500, 11);
  const Dataset test_set = generate_dataset(spec, 300, 12);

  // Injection is achievable, not guaranteed for every (position, init) draw:
  // like the experiment harness's stability guard, retry a few seeds and
  // assert the best run. A systematically broken attack fails all three.
  float best_accuracy = 0.0F;
  float best_asr = 0.0F;
  for (const std::uint64_t seed : {13ULL, 23ULL, 33ULL}) {
    AttackParams params;
    params.kind = GetParam();
    params.trigger_size = 3;
    params.target_class = 2;
    params.poison_rate = 0.20;
    params.seed = seed;
    AttackPtr attack = make_attack(params, spec);

    Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                                 spec.num_classes, seed + 1);
    TrainConfig config;
    config.epochs = 5;
    config.seed = seed + 2;
    (void)attack->train_backdoored(model, train_set, config);

    const float accuracy = evaluate_accuracy(model, test_set);
    const float asr = attack->success_rate(model, test_set);
    if (accuracy > 0.85F && asr > best_asr) {
      best_accuracy = accuracy;
      best_asr = asr;
    }
    if (best_accuracy > 0.85F && best_asr > 0.75F) break;
  }
  EXPECT_GT(best_accuracy, 0.85F);
  EXPECT_GT(best_asr, 0.75F);
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, InjectionTest,
                         ::testing::Values(AttackKind::kBadNet, AttackKind::kLatent,
                                           AttackKind::kIad));

}  // namespace
}  // namespace usb
