// Finite-difference validation of every layer's backward pass, plus
// mode-sensitive BatchNorm behaviour. These checks are what make the
// detection algorithms trustworthy: DeepFool, NC, TABOR and USB all consume
// dL/dinput through these layers.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "nn/squeeze_excite.h"

namespace usb {
namespace {

using testing::expect_gradient_close;
using testing::fill_uniform;

/// Checks dL/dinput of a module against finite differences where
/// L = <module(x), dy> with fixed random dy. Requires a deterministic,
/// mode-stable forward (BatchNorm is tested separately in eval mode).
void check_input_gradient(Module& module, const Shape& input_shape, std::uint64_t seed,
                          double rel_tol = 2e-2) {
  Rng rng(seed);
  Tensor x(input_shape);
  fill_uniform(x, rng, -1.0F, 1.0F);
  TensorArena arena;
  const Tensor& y0 = module.forward_into(x, arena);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng, -1.0F, 1.0F);
  module.zero_grad();
  const Tensor& dx = module.backward_into(dy, arena);

  auto loss = [&](const Tensor& probe) {
    const Tensor y = module.forward(probe);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss, x, dx, 1e-3, rel_tol);
}

/// The state tensor of `module` called `name`, read through collect_state.
const Tensor& state_tensor(const Module& module, const std::string& name) {
  std::vector<ConstStateTensor> state;
  module.collect_state(state);
  for (const ConstStateTensor& entry : state) {
    if (entry.name == name) return *entry.tensor;
  }
  throw std::out_of_range("no state tensor " + name);
}

/// Checks accumulated parameter gradients against finite differences.
void check_parameter_gradients(Module& module, const Shape& input_shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(input_shape);
  fill_uniform(x, rng, -1.0F, 1.0F);
  TensorArena arena;
  const Tensor& y0 = module.forward_into(x, arena);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng, -1.0F, 1.0F);
  module.zero_grad();
  (void)module.backward_into(dy, arena);

  for (Parameter* param : module.parameters()) {
    auto loss = [&](const Tensor& probe) {
      const Tensor saved = param->value;
      param->value = probe;
      const Tensor y = module.forward(x);
      param->value = saved;
      double total = 0.0;
      for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
      return total;
    };
    expect_gradient_close(loss, param->value, param->grad);
  }
}

TEST(Linear, InputGradient) {
  Rng rng(1);
  Linear layer(6, 4, rng);
  check_input_gradient(layer, Shape{3, 6}, 100);
}

TEST(Linear, ParameterGradients) {
  Rng rng(2);
  Linear layer(5, 3, rng);
  check_parameter_gradients(layer, Shape{2, 5}, 101);
}

TEST(Linear, RejectsWrongWidth) {
  Rng rng(3);
  Linear layer(5, 3, rng);
  EXPECT_THROW((void)layer.forward(Tensor(Shape{2, 4})), std::invalid_argument);
}

TEST(Conv2dLayer, InputGradient) {
  Rng rng(4);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.padding = 1;
  Conv2d layer(spec, rng);
  check_input_gradient(layer, Shape{2, 2, 6, 6}, 102);
}

TEST(Conv2dLayer, ParameterGradients) {
  Rng rng(5);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  spec.kernel = 3;
  spec.padding = 1;
  Conv2d layer(spec, rng);
  check_parameter_gradients(layer, Shape{1, 2, 5, 5}, 103);
}

TEST(Conv2dLayer, StridedInputAndParameterGradients) {
  Rng rng(30);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  Conv2d layer(spec, rng);
  check_input_gradient(layer, Shape{2, 2, 7, 7}, 130);
  check_parameter_gradients(layer, Shape{1, 2, 7, 7}, 131);
}

TEST(Conv2dLayer, UnpaddedInputGradient) {
  Rng rng(31);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  spec.kernel = 3;  // padding 0: output shrinks, border pixels reach fewer taps
  Conv2d layer(spec, rng);
  check_input_gradient(layer, Shape{2, 2, 6, 6}, 132);
}

TEST(Conv2dLayer, GroupedInputAndParameterGradients) {
  Rng rng(32);
  Conv2dSpec spec;
  spec.in_channels = 4;
  spec.out_channels = 4;
  spec.kernel = 3;
  spec.padding = 1;
  spec.groups = 2;
  Conv2d layer(spec, rng);
  check_input_gradient(layer, Shape{2, 4, 5, 5}, 133);
  check_parameter_gradients(layer, Shape{1, 4, 5, 5}, 134);
}

TEST(Conv2dLayer, DepthwiseStridedGradients) {
  // groups == in_channels: the MBConv depthwise configuration.
  Rng rng(33);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 3;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  spec.groups = 3;
  Conv2d layer(spec, rng);
  check_input_gradient(layer, Shape{2, 3, 7, 7}, 135);
  check_parameter_gradients(layer, Shape{1, 3, 7, 7}, 136);
}

TEST(Conv2dLayer, BiasFreeParameterGradients) {
  Rng rng(34);
  Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.kernel = 1;  // the 1x1 projection used inside residual shortcuts
  Conv2d layer(spec, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1U);
  check_parameter_gradients(layer, Shape{2, 2, 4, 4}, 137);
}

TEST(Activations, ReluGradient) {
  ReLU layer;
  check_input_gradient(layer, Shape{2, 3, 4, 4}, 104);
}

TEST(Activations, SigmoidGradient) {
  Sigmoid layer;
  check_input_gradient(layer, Shape{2, 8}, 105);
}

TEST(Activations, TanhGradient) {
  Tanh layer;
  check_input_gradient(layer, Shape{2, 8}, 106);
}

TEST(Activations, SiluGradient) {
  SiLU layer;
  check_input_gradient(layer, Shape{2, 3, 4, 4}, 107);
}

TEST(Pooling, MaxPoolInputGradient) {
  MaxPool2d layer(Pool2dSpec{2, 2});
  // Max pooling is piecewise linear; keep h small relative to value gaps.
  Rng rng(8);
  Tensor x(Shape{1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i % 7) + rng.uniform_float(0.0F, 0.3F);
  }
  TensorArena arena;
  const Tensor& y0 = layer.forward_into(x, arena);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng);
  const Tensor& dx = layer.backward_into(dy, arena);
  auto loss = [&](const Tensor& probe) {
    const Tensor y = layer.forward(probe);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss, x, dx, 1e-4);
}

TEST(Pooling, AvgPoolInputGradient) {
  AvgPool2d layer(Pool2dSpec{2, 2});
  check_input_gradient(layer, Shape{2, 2, 6, 6}, 108);
}

TEST(Pooling, GlobalAvgPoolInputGradient) {
  GlobalAvgPool layer;
  check_input_gradient(layer, Shape{2, 3, 4, 4}, 109);
}

TEST(Pooling, OverlappingMaxPoolInputGradient) {
  // kernel > stride: input elements feed several windows, so their gradients
  // accumulate across windows. Distinct values keep the max piecewise-stable.
  MaxPool2d layer(Pool2dSpec{3, 1});
  Rng rng(35);
  Tensor x(Shape{1, 2, 5, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>((i * 7) % 23) + rng.uniform_float(0.0F, 0.2F);
  }
  TensorArena arena;
  const Tensor& y0 = layer.forward_into(x, arena);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng);
  const Tensor& dx = layer.backward_into(dy, arena);
  auto loss = [&](const Tensor& probe) {
    const Tensor y = layer.forward(probe);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss, x, dx, 1e-4);
}

TEST(Pooling, StridedAvgPoolInputGradient) {
  AvgPool2d layer(Pool2dSpec{3, 2});
  check_input_gradient(layer, Shape{2, 2, 7, 7}, 138);
}

TEST(Pooling, FlattenRoundTrip) {
  Flatten layer;
  Tensor x(Shape{2, 3, 4, 4});
  Rng rng(10);
  fill_uniform(x, rng);
  TensorArena arena;
  const Tensor& y = layer.forward_into(x, arena);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor& dx = layer.backward_into(y, arena);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_TRUE(dx.equals(x.reshaped(Shape{2, 48}).reshaped(x.shape())));
}

TEST(BatchNorm, EvalModeGradient) {
  BatchNorm2d layer(3);
  // Give the running stats non-trivial values through one training forward.
  Rng rng(11);
  Tensor warmup(Shape{8, 3, 4, 4});
  fill_uniform(warmup, rng, -2.0F, 2.0F);
  layer.set_training(true);
  (void)layer.forward(warmup);
  layer.set_training(false);
  check_input_gradient(layer, Shape{2, 3, 4, 4}, 110);
}

TEST(BatchNorm, TrainModeGradient) {
  BatchNorm2d layer(2);
  layer.set_training(true);
  check_input_gradient(layer, Shape{4, 2, 3, 3}, 111, /*rel_tol=*/5e-2);
}

TEST(BatchNorm, TrainModeParameterGradients) {
  // Gamma/beta gradients flow through the batch statistics in train mode;
  // finite differences must see the renormalization, not just the affine.
  BatchNorm2d layer(3);
  layer.set_training(true);
  check_parameter_gradients(layer, Shape{4, 3, 3, 3}, 139);
}

TEST(BatchNorm, NormalizesBatchInTrainingMode) {
  BatchNorm2d layer(1);
  layer.set_training(true);
  Rng rng(12);
  Tensor x(Shape{16, 1, 4, 4});
  fill_uniform(x, rng, 3.0F, 5.0F);  // mean ~4, nonzero
  const Tensor y = layer.forward(x);
  EXPECT_NEAR(y.mean(), 0.0F, 1e-4F);
  EXPECT_NEAR(y.sq_sum() / static_cast<float>(y.numel()), 1.0F, 1e-2F);
}

TEST(BatchNorm, RunningStatsConvergeToBatchStats) {
  BatchNorm2d layer(1, 1e-5F, /*momentum=*/1.0F);  // momentum 1: adopt batch stats
  layer.set_training(true);
  Tensor x(Shape{8, 1, 2, 2});
  Rng rng(13);
  fill_uniform(x, rng, 1.0F, 3.0F);
  (void)layer.forward(x);
  EXPECT_NEAR(state_tensor(layer, "bn.running_mean")[0], x.mean(), 1e-4F);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d layer(1, 1e-5F, 1.0F);
  layer.set_training(true);
  Tensor x(Shape{8, 1, 2, 2});
  Rng rng(14);
  fill_uniform(x, rng, 1.0F, 3.0F);
  (void)layer.forward(x);

  layer.set_training(false);
  // A constant input equal to the running mean must map to beta (= 0).
  Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, state_tensor(layer, "bn.running_mean")[0]);
  const Tensor y = layer.forward(probe);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0F, 1e-3F);
}

TEST(Residual, InputGradientEvalMode) {
  Rng rng(15);
  ResidualBlock block(2, 2, 1, rng);
  // Warm up running stats, then check gradients in eval mode (the detection
  // path exercises exactly this configuration).
  Tensor warmup(Shape{8, 2, 6, 6});
  fill_uniform(warmup, rng);
  block.set_training(true);
  (void)block.forward(warmup);
  block.set_training(false);
  check_input_gradient(block, Shape{2, 2, 6, 6}, 112);
}

TEST(Residual, ProjectionShapeChange) {
  Rng rng(16);
  ResidualBlock block(2, 4, 2, rng);
  block.set_training(false);
  Tensor x(Shape{1, 2, 8, 8});
  fill_uniform(x, rng);
  const Tensor y = block.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
}

TEST(SqueezeExciteLayer, InputGradient) {
  Rng rng(17);
  SqueezeExcite layer(4, 2, rng);
  layer.set_training(false);
  check_input_gradient(layer, Shape{2, 4, 3, 3}, 113);
}

TEST(MBConv, InputGradientEvalMode) {
  Rng rng(18);
  MBConvBlock block(4, 4, 1, 2, rng);
  Tensor warmup(Shape{8, 4, 6, 6});
  fill_uniform(warmup, rng);
  block.set_training(true);
  (void)block.forward(warmup);
  block.set_training(false);
  check_input_gradient(block, Shape{1, 4, 6, 6}, 114, /*rel_tol=*/3e-2);
}

TEST(SequentialContainer, ChainsAndCollects) {
  Rng rng(19);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::make_unique<Linear>(6, 5, rng));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::make_unique<Linear>(5, 3, rng));
  EXPECT_EQ(seq->size(), 3);
  EXPECT_EQ(seq->parameters().size(), 4U);
  check_input_gradient(*seq, Shape{2, 6}, 115);
}

TEST(SequentialContainer, RangedForwardBackwardMatchesFull) {
  Rng rng(20);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 4, rng));
  seq.add(std::make_unique<Tanh>());
  seq.add(std::make_unique<Linear>(4, 2, rng));

  Tensor x(Shape{3, 4});
  fill_uniform(x, rng);
  TensorArena full_arena;
  const Tensor& full = seq.forward_into(x, full_arena);
  TensorArena split_arena;
  const Tensor& features = seq.forward_layers(x, 0, 2, split_arena);
  const Tensor& head = seq.forward_layers(features, 2, 3, split_arena);
  EXPECT_TRUE(head.equals(full));

  Tensor dy(full.shape());
  fill_uniform(dy, rng);
  seq.zero_grad();
  const Tensor& dx_full = seq.backward_into(dy, full_arena);
  seq.zero_grad();
  const Tensor& dfeat = seq.backward_layers(dy, 2, 3, split_arena);
  const Tensor& dx_split = seq.backward_layers(dfeat, 0, 2, split_arena);
  for (std::int64_t i = 0; i < dx_full.numel(); ++i) {
    EXPECT_NEAR(dx_full[i], dx_split[i], 1e-6F);
  }
}

TEST(SequentialContainer, RangeValidation) {
  Sequential seq;
  TensorArena arena;
  EXPECT_THROW((void)seq.forward_layers(Tensor(Shape{1}), 0, 1, arena), std::out_of_range);
  EXPECT_THROW((void)seq.backward_layers(Tensor(Shape{1}), 0, 1, arena), std::out_of_range);
}

}  // namespace
}  // namespace usb
