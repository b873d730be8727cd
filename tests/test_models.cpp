// Tests for the architecture factories, Network feature/head split,
// checkpoint round-trips and layout, the module-tree walks, and network
// cloning.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/checkpoint.h"
#include "nn/models.h"
#include "tensor/tensor_ops.h"
#include "utils/serialize.h"

namespace usb {
namespace {

using testing::fill_uniform;

struct ArchCase {
  Architecture arch;
  std::int64_t channels;
  std::int64_t size;
  std::int64_t classes;
};

class ArchParamTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchParamTest, ForwardProducesLogits) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/1);
  net.set_training(false);
  Rng rng(2);
  Tensor x(Shape{3, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor& logits = net.forward_into(x, arena);
  EXPECT_EQ(logits.shape(), (Shape{3, tc.classes}));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits[i]));
  }
}

TEST_P(ArchParamTest, BackwardReachesInput) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/3);
  net.set_training(false);
  Rng rng(4);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor& logits = net.forward_into(x, arena);
  Tensor dlogits(logits.shape());
  fill_uniform(dlogits, rng);
  const Tensor& dx = net.backward_into(dlogits, arena);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_GT(dx.abs_sum(), 0.0F);  // gradient actually reaches the image
}

TEST_P(ArchParamTest, FeatureHeadSplitMatchesFullForward) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/5);
  net.set_training(false);
  Rng rng(6);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor& full = net.forward_into(x, arena);
  const Sequential& layers = net.sequential();
  const Tensor& features = layers.forward_layers(x, 0, net.feature_boundary(), arena);
  const Tensor& split = layers.forward_layers(features, net.feature_boundary(), layers.size(),
                                              arena);
  ASSERT_EQ(split.shape(), full.shape());
  for (std::int64_t i = 0; i < full.numel(); ++i) EXPECT_NEAR(split[i], full[i], 1e-5F);
}

TEST_P(ArchParamTest, CheckpointRoundTrip) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/7);
  net.set_training(false);
  Rng rng(8);
  Tensor x(Shape{1, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor before = net.forward_into(x, arena);

  const std::string path = ::testing::TempDir() + "ckpt_" + to_string(tc.arch) + ".bin";
  save_checkpoint(net, path);
  Network restored = load_checkpoint(path);
  restored.set_training(false);
  const Tensor& after = restored.forward_into(x, arena);
  ASSERT_EQ(after.shape(), before.shape());
  for (std::int64_t i = 0; i < before.numel(); ++i) EXPECT_EQ(after[i], before[i]);
  std::remove(path.c_str());
}

TEST_P(ArchParamTest, CloneIsIndependentAndIdentical) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/9);
  net.set_training(false);
  Network clone = clone_network(net);
  Rng rng(10);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor& a = net.forward_into(x, arena);
  const Tensor& b = clone.forward_into(x, arena);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);

  // Mutating the clone must not affect the source.
  clone.parameters()[0]->value.fill(0.0F);
  const Tensor& c = net.forward_into(x, arena);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], c[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchParamTest,
    ::testing::Values(ArchCase{Architecture::kBasicCnn, 1, 28, 10},
                      ArchCase{Architecture::kMiniResNet, 3, 32, 10},
                      ArchCase{Architecture::kMiniVgg, 3, 32, 10},
                      ArchCase{Architecture::kMiniEffNet, 3, 48, 10},
                      ArchCase{Architecture::kMiniResNet, 3, 32, 43}));  // GTSRB width

TEST(Architecture, StringRoundTrip) {
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    EXPECT_EQ(architecture_from_string(to_string(arch)), arch);
  }
  EXPECT_THROW((void)architecture_from_string("resnet152"), std::invalid_argument);
}

TEST(Network, BasicCnnMatchesPaperGeometry) {
  // Appendix A.7: conv(1,16,5), conv(16,32,5), fc(512,512), fc(512,10) for
  // 28x28 MNIST inputs -> flattened feature size is exactly 512.
  Network net = make_network(Architecture::kBasicCnn, 1, 28, 10, 11);
  net.set_training(false);
  const Tensor x(Shape{1, 1, 28, 28});
  TensorArena arena;
  const Tensor& features = net.sequential().forward_layers(x, 0, net.feature_boundary(), arena);
  EXPECT_EQ(features.numel(), 512);
}

/// The checkpoint layout of one architecture: the ordered (name, numel)
/// sequence of Network::state_view(), written as "name:numel" tokens, and
/// how many of those tensors are parameters (the rest are BatchNorm running
/// statistics). load_checkpoint rejects a file whose order differs from the
/// build's, so a change to these values orphans every cached checkpoint.
struct PinnedLayout {
  ArchCase arch;
  std::size_t parameter_tensors;
  const char* state;
};

const PinnedLayout kPinnedLayouts[] = {
    {{Architecture::kBasicCnn, 1, 28, 10},
     8,
     "conv.weight:400 conv.bias:16 conv.weight:12800 conv.bias:32 linear.weight:262144 "
     "linear.bias:512 linear.weight:5120 linear.bias:10"},
    {{Architecture::kMiniResNet, 3, 32, 10},
     29,
     "conv.weight:216 bn.gamma:8 bn.beta:8 bn.running_mean:8 bn.running_var:8 "
     "conv.weight:576 bn.gamma:8 bn.beta:8 bn.running_mean:8 bn.running_var:8 "
     "conv.weight:576 bn.gamma:8 bn.beta:8 bn.running_mean:8 bn.running_var:8 "
     "conv.weight:1152 bn.gamma:16 bn.beta:16 bn.running_mean:16 bn.running_var:16 "
     "conv.weight:2304 bn.gamma:16 bn.beta:16 bn.running_mean:16 bn.running_var:16 "
     "conv.weight:128 bn.gamma:16 bn.beta:16 bn.running_mean:16 bn.running_var:16 "
     "conv.weight:4608 bn.gamma:32 bn.beta:32 bn.running_mean:32 bn.running_var:32 "
     "conv.weight:9216 bn.gamma:32 bn.beta:32 bn.running_mean:32 bn.running_var:32 "
     "conv.weight:512 bn.gamma:32 bn.beta:32 bn.running_mean:32 bn.running_var:32 "
     "linear.weight:320 linear.bias:10"},
    {{Architecture::kMiniVgg, 3, 32, 10},
     22,
     "conv.weight:216 bn.gamma:8 bn.beta:8 bn.running_mean:8 bn.running_var:8 "
     "conv.weight:576 bn.gamma:8 bn.beta:8 bn.running_mean:8 bn.running_var:8 "
     "conv.weight:1152 bn.gamma:16 bn.beta:16 bn.running_mean:16 bn.running_var:16 "
     "conv.weight:2304 bn.gamma:16 bn.beta:16 bn.running_mean:16 bn.running_var:16 "
     "conv.weight:4608 bn.gamma:32 bn.beta:32 bn.running_mean:32 bn.running_var:32 "
     "conv.weight:9216 bn.gamma:32 bn.beta:32 bn.running_mean:32 bn.running_var:32 "
     "linear.weight:49152 linear.bias:96 linear.weight:960 linear.bias:10"},
    {{Architecture::kMiniEffNet, 3, 48, 10},
     54,
     "conv.weight:324 bn.gamma:12 bn.beta:12 bn.running_mean:12 bn.running_var:12 "
     "conv.weight:108 bn.gamma:12 bn.beta:12 bn.running_mean:12 bn.running_var:12 "
     "linear.weight:36 linear.bias:3 linear.weight:36 linear.bias:12 conv.weight:144 "
     "bn.gamma:12 bn.beta:12 bn.running_mean:12 bn.running_var:12 conv.weight:288 "
     "bn.gamma:24 bn.beta:24 bn.running_mean:24 bn.running_var:24 conv.weight:216 "
     "bn.gamma:24 bn.beta:24 bn.running_mean:24 bn.running_var:24 linear.weight:72 "
     "linear.bias:3 linear.weight:72 linear.bias:24 conv.weight:576 bn.gamma:24 "
     "bn.beta:24 bn.running_mean:24 bn.running_var:24 conv.weight:1152 bn.gamma:48 "
     "bn.beta:48 bn.running_mean:48 bn.running_var:48 conv.weight:432 bn.gamma:48 "
     "bn.beta:48 bn.running_mean:48 bn.running_var:48 linear.weight:288 linear.bias:6 "
     "linear.weight:288 linear.bias:48 conv.weight:1152 bn.gamma:24 bn.beta:24 "
     "bn.running_mean:24 bn.running_var:24 conv.weight:1152 bn.gamma:48 bn.beta:48 "
     "bn.running_mean:48 bn.running_var:48 conv.weight:432 bn.gamma:48 bn.beta:48 "
     "bn.running_mean:48 bn.running_var:48 linear.weight:288 linear.bias:6 "
     "linear.weight:288 linear.bias:48 conv.weight:2304 bn.gamma:48 bn.beta:48 "
     "bn.running_mean:48 bn.running_var:48 linear.weight:480 linear.bias:10"},
};

std::string layout_of(const Network& net) {
  std::string out;
  for (const ConstStateTensor& entry : net.state_view()) {
    if (!out.empty()) out += ' ';
    out += entry.name + ':' + std::to_string(entry.tensor->numel());
  }
  return out;
}

// CheckpointRoundTrip writes and reads with one build, so it cannot see a
// reordered registration; this pins the order against the golden layout,
// at two seeds because the layout must not depend on the weights.
TEST(Checkpoint, LayoutIsPinnedPerArchitecture) {
  for (const PinnedLayout& pinned : kPinnedLayouts) {
    const ArchCase& tc = pinned.arch;
    for (const std::uint64_t seed : {1U, 2U}) {
      SCOPED_TRACE(to_string(tc.arch) + " seed " + std::to_string(seed));
      const Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, seed);
      EXPECT_EQ(layout_of(net), pinned.state);
      EXPECT_EQ(net.parameters_view().size(), pinned.parameter_tensors);
    }
  }
}

/// Copies of every state tensor, then of every parameter gradient.
std::vector<Tensor> snapshot(const Network& net) {
  std::vector<Tensor> out;
  for (const ConstStateTensor& entry : net.state_view()) out.push_back(*entry.tensor);
  for (const Parameter* parameter : net.parameters_view()) out.push_back(parameter->grad);
  return out;
}

/// One forward_into + backward_into of a random batch of two.
void one_pass(const Network& net, const ArchCase& tc, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  TensorArena arena;
  const Tensor& logits = net.forward_into(x, arena);
  Tensor dlogits(logits.shape());
  fill_uniform(dlogits, rng);
  (void)net.backward_into(dlogits, arena);
}

// The mode walks reach every nested module: a child its constructor forgot
// to register would keep moving its BatchNorm statistics or accumulating
// gradients after freeze(), and stay still once training is switched on.
TEST(Network, ModeWalksReachEveryNestedModule) {
  for (const PinnedLayout& pinned : kPinnedLayouts) {
    const ArchCase& tc = pinned.arch;
    SCOPED_TRACE(to_string(tc.arch));
    Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/21);

    net.freeze();
    const std::vector<Tensor> before = snapshot(net);
    one_pass(net, tc, 22);
    const std::vector<Tensor> frozen = snapshot(net);
    ASSERT_EQ(frozen.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_TRUE(frozen[i].equals(before[i])) << "tensor " << i << " changed while frozen";
    }

    net.set_training(true);
    net.set_param_grads_enabled(true);
    one_pass(net, tc, 23);
    const std::vector<const Parameter*> parameters = net.parameters_view();
    ASSERT_EQ(parameters.size(), pinned.parameter_tensors);
    std::set<const Tensor*> parameter_values;
    for (const Parameter* parameter : parameters) {
      parameter_values.insert(&parameter->value);
      EXPECT_GT(parameter->grad.abs_sum(), 0.0F) << parameter->name;
    }
    const std::vector<ConstStateTensor> state = net.state_view();
    std::size_t running_stats = 0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (parameter_values.count(state[i].tensor) != 0) continue;
      ++running_stats;
      EXPECT_FALSE(state[i].tensor->equals(before[i])) << state[i].name << " (tensor " << i << ")";
    }
    EXPECT_EQ(running_stats, state.size() - pinned.parameter_tensors);
  }
}

TEST(Checkpoint, RejectsCorruptedFile) {
  const std::string path = ::testing::TempDir() + "corrupt.bin";
  BinaryWriter writer;
  writer.write_u32(0xDEADBEEF);
  writer.save(path);
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace usb
