// Tests for losses (CE / targeted CE / MSE gradients) and optimizers
// (SGD momentum semantics, AdamState convergence on a free tensor).
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace usb {
namespace {

using testing::expect_gradient_close;
using testing::fill_uniform;

TEST(SoftmaxCrossEntropy, KnownValue) {
  SoftmaxCrossEntropy loss;
  // Uniform logits over 4 classes: CE = log(4).
  const Tensor logits(Shape{2, 4});
  const float value = loss.forward(logits, {0, 3});
  EXPECT_NEAR(value, std::log(4.0F), 1e-5F);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(1);
  Tensor logits(Shape{3, 5});
  fill_uniform(logits, rng, -2.0F, 2.0F);
  const std::vector<std::int64_t> labels{0, 2, 4};
  SoftmaxCrossEntropy loss;
  (void)loss.forward(logits, labels);
  TensorArena arena;
  const Tensor& grad = loss.backward_into(arena);

  auto loss_fn = [&](const Tensor& probe) {
    SoftmaxCrossEntropy probe_loss;
    return static_cast<double>(probe_loss.forward(probe, labels));
  };
  expect_gradient_close(loss_fn, logits, grad, 1e-3, 1e-2);
}

TEST(SoftmaxCrossEntropy, GradientRowsSumToZero) {
  Rng rng(2);
  Tensor logits(Shape{4, 6});
  fill_uniform(logits, rng, -1.0F, 1.0F);
  SoftmaxCrossEntropy loss;
  (void)loss.forward(logits, {1, 2, 3, 4});
  TensorArena arena;
  const Tensor& grad = loss.backward_into(arena);
  for (std::int64_t r = 0; r < 4; ++r) {
    double row_sum = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) row_sum += grad.at2(r, c);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

// A label outside [0, classes) would index past the row of probabilities
// the loss reads, and its gradient would write there.
TEST(SoftmaxCrossEntropy, RejectsLabelOutOfRange) {
  SoftmaxCrossEntropy loss;
  const Tensor logits(Shape{2, 3});
  EXPECT_THROW((void)loss.forward(logits, {0, -1}), std::invalid_argument);
  EXPECT_THROW((void)loss.forward(logits, {3, 0}), std::invalid_argument);
  EXPECT_NO_THROW((void)loss.forward(logits, {0, 2}));
}

TEST(TargetedCrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(3);
  Tensor logits(Shape{3, 4});
  fill_uniform(logits, rng, -2.0F, 2.0F);
  TargetedCrossEntropy loss;
  (void)loss.forward(logits, 2);
  TensorArena arena;
  const Tensor& grad = loss.backward_into(arena);
  auto loss_fn = [&](const Tensor& probe) {
    TargetedCrossEntropy probe_loss;
    return static_cast<double>(probe_loss.forward(probe, 2));
  };
  expect_gradient_close(loss_fn, logits, grad);
}

TEST(TargetedCrossEntropy, RejectsBadTarget) {
  TargetedCrossEntropy loss;
  EXPECT_THROW((void)loss.forward(Tensor(Shape{1, 3}), 3), std::invalid_argument);
  EXPECT_THROW((void)loss.forward(Tensor(Shape{1, 3}), -1), std::invalid_argument);
}

TEST(MeanSquaredError, ValueAndGradient) {
  const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  const Tensor b(Shape{2, 2}, {0, 2, 3, 6});
  MeanSquaredError loss;
  EXPECT_NEAR(loss.forward(a, b), (1.0F + 0.0F + 0.0F + 4.0F) / 4.0F, 1e-6F);
  TensorArena arena;
  const Tensor& grad = loss.backward_into(arena);
  EXPECT_NEAR(grad[0], 2.0F * 1.0F / 4.0F, 1e-6F);
  EXPECT_NEAR(grad[3], 2.0F * -2.0F / 4.0F, 1e-6F);
}

TEST(SgdOptimizer, PlainStepWithoutMomentum) {
  Parameter p("w", Tensor(Shape{2}, {1.0F, -1.0F}));
  p.grad = Tensor(Shape{2}, {0.5F, -0.5F});
  SgdConfig config;
  config.lr = 0.1F;
  config.momentum = 0.0F;
  Sgd sgd({&p}, config);
  sgd.step();
  EXPECT_NEAR(p.value[0], 1.0F - 0.05F, 1e-6F);
  EXPECT_NEAR(p.value[1], -1.0F + 0.05F, 1e-6F);
}

TEST(SgdOptimizer, MomentumAccumulates) {
  Parameter p("w", Tensor(Shape{1}, {0.0F}));
  SgdConfig config;
  config.lr = 1.0F;
  config.momentum = 0.5F;
  Sgd sgd({&p}, config);
  p.grad[0] = 1.0F;
  sgd.step();  // v=1, w=-1
  EXPECT_NEAR(p.value[0], -1.0F, 1e-6F);
  p.grad[0] = 1.0F;
  sgd.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5F, 1e-6F);
}

TEST(SgdOptimizer, WeightDecayPullsTowardZero) {
  Parameter p("w", Tensor(Shape{1}, {2.0F}));
  SgdConfig config;
  config.lr = 0.1F;
  config.momentum = 0.0F;
  config.weight_decay = 0.5F;
  Sgd sgd({&p}, config);
  p.grad[0] = 0.0F;
  sgd.step();
  EXPECT_LT(p.value[0], 2.0F);
}

TEST(AdamState, ConvergesOnQuadratic) {
  // minimize f(w) = (w - 3)^2
  Tensor w(Shape{1}, {0.0F});
  Tensor grad(Shape{1});
  AdamConfig config;
  config.lr = 0.1F;
  AdamState adam(w.shape(), config);
  for (int i = 0; i < 300; ++i) {
    grad[0] = 2.0F * (w[0] - 3.0F);
    adam.step(w, grad);
  }
  EXPECT_NEAR(w[0], 3.0F, 0.05F);
}

TEST(SgdOptimizer, ZeroGradClearsAll) {
  Parameter a("a", Tensor(Shape{2}));
  Parameter b("b", Tensor(Shape{2}));
  a.grad.fill(3.0F);
  b.grad.fill(-1.0F);
  Sgd sgd({&a, &b}, SgdConfig{});
  sgd.zero_grad();
  EXPECT_EQ(a.grad.abs_sum(), 0.0F);
  EXPECT_EQ(b.grad.abs_sum(), 0.0F);
}

}  // namespace
}  // namespace usb
