// Tests for the experiment harness: model-zoo caching semantics, detection
// case execution, and the paper-layout table rendering.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "attacks/badnet.h"
#include "exp/experiment.h"

namespace usb {
namespace {

ExperimentScale tiny_scale(const std::string& cache_dir) {
  ExperimentScale scale;
  scale.models_per_case = 1;
  scale.epochs = 3;
  scale.train_size = 800;
  scale.test_size = 150;
  scale.fast = true;
  scale.model_cache_dir = cache_dir;
  return scale;
}

TEST(ModelZoo, CacheKeyDistinguishesCoordinates) {
  ModelCaseSpec a;
  a.dataset = DatasetSpec::mnist_like();
  a.arch = Architecture::kBasicCnn;
  a.attack.kind = AttackKind::kBadNet;
  a.attack.trigger_size = 2;
  a.model_index = 0;

  ModelCaseSpec b = a;
  b.model_index = 1;
  EXPECT_NE(a.cache_key(), b.cache_key());

  ModelCaseSpec c = a;
  c.attack.trigger_size = 3;
  EXPECT_NE(a.cache_key(), c.cache_key());

  ModelCaseSpec d = a;
  d.attack.kind = AttackKind::kNone;
  EXPECT_NE(a.cache_key(), d.cache_key());
}

TEST(ModelZoo, TrainThenLoadRoundTrip) {
  const std::string cache_dir = ::testing::TempDir() + "zoo_cache";
  std::filesystem::remove_all(cache_dir);

  ModelCaseSpec spec;
  spec.dataset = DatasetSpec::mnist_like();
  spec.arch = Architecture::kBasicCnn;
  spec.attack.kind = AttackKind::kBadNet;
  spec.attack.trigger_size = 3;
  spec.attack.poison_rate = 0.2;
  spec.scale = tiny_scale(cache_dir);

  TrainedModel first = train_or_load(spec);
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.clean_accuracy, 0.2F);  // cache fidelity is under test, not model quality

  TrainedModel second = train_or_load(spec);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.clean_accuracy, first.clean_accuracy);
  EXPECT_EQ(second.asr, first.asr);
  ASSERT_NE(second.attack, nullptr);  // BadNet is reconstructible from seed

  // The cached network computes the same function.
  const Dataset probe = make_probe(spec.dataset, 32);
  TensorArena arena;
  const Tensor& logits_a = first.network.forward_into(probe.images(), arena);
  const Tensor& logits_b = second.network.forward_into(probe.images(), arena);
  for (std::int64_t i = 0; i < logits_a.numel(); ++i) {
    EXPECT_EQ(logits_a[i], logits_b[i]);
  }
  std::filesystem::remove_all(cache_dir);
}

// A cached victim's attack is the one its weights learned: training seeds
// the attack from the model's identity, and a cache hit rebuilds it from
// that seed, not from the spec's.
TEST(ModelZoo, CachedVictimStampsTheTriggerItWasTrainedOn) {
  const std::string cache_dir = ::testing::TempDir() + "zoo_trigger_cache";
  std::filesystem::remove_all(cache_dir);
  ExperimentScale scale = tiny_scale(cache_dir);
  scale.epochs = 1;
  scale.train_size = 200;
  const Dataset batch = make_probe(DatasetSpec::mnist_like(), 4);
  for (const AttackKind kind : {AttackKind::kBadNet, AttackKind::kLatent}) {
    SCOPED_TRACE(to_string(kind));
    ModelCaseSpec spec;
    spec.dataset = DatasetSpec::mnist_like();
    spec.arch = Architecture::kBasicCnn;
    spec.attack.kind = kind;
    spec.attack.trigger_size = 3;
    spec.attack.target_class = 2;
    spec.scale = scale;

    const TrainedModel trained = train_or_load(spec);
    const TrainedModel cached = train_or_load(spec);
    ASSERT_FALSE(trained.from_cache);
    ASSERT_TRUE(cached.from_cache);
    ASSERT_NE(trained.attack, nullptr);
    ASSERT_NE(cached.attack, nullptr);
    EXPECT_TRUE(cached.attack->apply_trigger(batch.images())
                    .equals(trained.attack->apply_trigger(batch.images())));
    if (kind == AttackKind::kBadNet) {
      const auto& trained_badnet = dynamic_cast<const BadNet&>(*trained.attack);
      const auto& cached_badnet = dynamic_cast<const BadNet&>(*cached.attack);
      EXPECT_TRUE(cached_badnet.trigger_image().equals(trained_badnet.trigger_image()));
    }
  }
  std::filesystem::remove_all(cache_dir);
}

TEST(ModelZoo, ProbeIsDeterministicPerSeed) {
  const Dataset a = make_probe(DatasetSpec::mnist_like(), 50, 1);
  const Dataset b = make_probe(DatasetSpec::mnist_like(), 50, 1);
  const Dataset c = make_probe(DatasetSpec::mnist_like(), 50, 2);
  EXPECT_TRUE(a.images().equals(b.images()));
  EXPECT_FALSE(a.images().equals(c.images()));
}

TEST(Experiment, MethodStringsAndBudget) {
  EXPECT_EQ(to_string(MethodKind::kNc), "NC");
  EXPECT_EQ(to_string(MethodKind::kTabor), "TABOR");
  EXPECT_EQ(to_string(MethodKind::kUsb), "USB");

  ExperimentScale fast;
  fast.fast = true;
  const MethodBudget budget = MethodBudget::from_scale(fast);
  EXPECT_LE(budget.nc_steps, 100);
  EXPECT_LE(budget.uap_max_passes, 2);
}

TEST(Experiment, MakeDetectorBuildsAllKinds) {
  const MethodBudget budget;
  EXPECT_EQ(make_detector(MethodKind::kNc, budget)->name(), "NC");
  EXPECT_EQ(make_detector(MethodKind::kTabor, budget)->name(), "TABOR");
  EXPECT_EQ(make_detector(MethodKind::kUsb, budget)->name(), "USB");
}

TEST(Experiment, RunDetectionCaseProducesConsistentCounts) {
  const std::string cache_dir = ::testing::TempDir() + "case_cache";
  std::filesystem::remove_all(cache_dir);

  DetectionCaseSpec case_spec;
  case_spec.label = "test case";
  case_spec.dataset = DatasetSpec::mnist_like();
  case_spec.arch = Architecture::kBasicCnn;
  case_spec.attack = AttackKind::kBadNet;
  case_spec.trigger_size = 3;
  case_spec.poison_rate = 0.2;
  case_spec.probe_size = 100;

  DetectionService service;
  const DetectionCaseResult result =
      run_detection_case(case_spec, tiny_scale(cache_dir), {MethodKind::kUsb}, service);
  ASSERT_EQ(result.methods.size(), 1U);
  const CaseCounts& counts = result.methods[0].counts;
  // Every model lands in exactly one of clean/backdoored.
  EXPECT_EQ(counts.detected_clean + counts.detected_backdoored, 1);
  // Target outcomes never exceed backdoored verdicts.
  EXPECT_LE(counts.correct + counts.correct_set + counts.wrong, counts.detected_backdoored);
  EXPECT_GT(result.mean_accuracy, 0.0);
  std::filesystem::remove_all(cache_dir);
}

TEST(Experiment, PrintDetectionTableRendersRows) {
  DetectionCaseResult result;
  result.spec.label = "Synthetic row";
  result.spec.attack = AttackKind::kBadNet;
  result.mean_accuracy = 0.95;
  result.mean_asr = 0.91;
  MethodRow row;
  row.method = "USB";
  row.counts.detected_backdoored = 2;
  row.counts.correct = 2;
  result.methods.push_back(row);
  // Smoke: must not throw and must print something (visual check via ctest
  // verbose output); the Table class itself is covered in test_utils.
  print_detection_table("unit-test table", {result});
}

}  // namespace
}  // namespace usb
