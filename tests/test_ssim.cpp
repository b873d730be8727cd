// SSIM correctness and analytic-gradient validation. The gradient feeds
// USB's Alg. 2 loss, so this is load-bearing for the whole method.
#include <gtest/gtest.h>

#include "gradcheck.h"
#include "metrics/ssim.h"

namespace usb {
namespace {

using testing::expect_gradient_close;
using testing::fill_uniform;

TEST(Ssim, IdenticalImagesScoreOne) {
  Rng rng(1);
  Tensor x(Shape{1, 3, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  EXPECT_NEAR(ssim(x, x), 1.0F, 1e-4F);
}

TEST(Ssim, SymmetricInArguments) {
  Rng rng(2);
  Tensor x(Shape{1, 1, 16, 16});
  Tensor y(Shape{1, 1, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  EXPECT_NEAR(ssim(x, y), ssim(y, x), 1e-5F);
}

TEST(Ssim, DecreasesWithNoise) {
  Rng rng(3);
  Tensor x(Shape{1, 1, 20, 20});
  fill_uniform(x, rng, 0.2F, 0.8F);
  Tensor y_small = x;
  Tensor y_large = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    y_small[i] += rng.uniform_float(-0.02F, 0.02F);
    y_large[i] += rng.uniform_float(-0.3F, 0.3F);
  }
  const float s_small = ssim(x, y_small);
  const float s_large = ssim(x, y_large);
  EXPECT_GT(s_small, s_large);
  EXPECT_LT(s_large, 0.95F);
  EXPECT_GT(s_small, 0.8F);
}

TEST(Ssim, BoundedAboveByOne) {
  Rng rng(4);
  Tensor x(Shape{2, 1, 14, 14});
  Tensor y(Shape{2, 1, 14, 14});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  EXPECT_LE(ssim(x, y), 1.0F + 1e-5F);
}

TEST(Ssim, RejectsShapeMismatchAndTinyImages) {
  EXPECT_THROW((void)ssim(Tensor(Shape{1, 1, 16, 16}), Tensor(Shape{1, 1, 16, 15})),
               std::invalid_argument);
  EXPECT_THROW((void)ssim(Tensor(Shape{1, 1, 8, 8}), Tensor(Shape{1, 1, 8, 8})),
               std::invalid_argument);  // smaller than the 11x11 window
}

TEST(Ssim, ValueMatchesGradientVariant) {
  Rng rng(5);
  Tensor x(Shape{1, 3, 16, 16});
  Tensor y(Shape{1, 3, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  TensorArena arena;
  const SsimGradRef result = ssim_with_gradient(x, y, arena);
  EXPECT_NEAR(result.value, ssim(x, y), 1e-5F);
  EXPECT_EQ(result.grad_y->shape(), y.shape());
}

TEST(Ssim, AnalyticGradientMatchesFiniteDifference) {
  Rng rng(6);
  // Small geometry (window 5) keeps the finite-difference sweep fast while
  // exercising the full adjoint path.
  SsimConfig config;
  config.window = 5;
  config.sigma = 1.0;
  Tensor x(Shape{1, 2, 9, 9});
  Tensor y(Shape{1, 2, 9, 9});
  fill_uniform(x, rng, 0.1F, 0.9F);
  fill_uniform(y, rng, 0.1F, 0.9F);

  TensorArena arena;
  const SsimGradRef result = ssim_with_gradient(x, y, arena, config);
  auto loss = [&](const Tensor& probe) { return static_cast<double>(ssim(x, probe, config)); };
  expect_gradient_close(loss, y, *result.grad_y, 1e-3, 2e-2, 1e-4);
}

TEST(Ssim, GradientPointsTowardReference) {
  // Gradient ascent on SSIM should increase similarity to x.
  Rng rng(7);
  Tensor x(Shape{1, 1, 16, 16});
  fill_uniform(x, rng, 0.2F, 0.8F);
  Tensor y = x;
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] += rng.uniform_float(-0.2F, 0.2F);

  const float before = ssim(x, y);
  TensorArena arena;
  for (int step = 0; step < 40; ++step) {
    arena.reset();
    const SsimGradRef result = ssim_with_gradient(x, y, arena);
    // Normalized ascent: fixed step length along the gradient direction.
    const float norm = std::max(result.grad_y->l2_norm(), 1e-8F);
    y.add_scaled(*result.grad_y, 0.05F / norm);
  }
  EXPECT_GT(ssim(x, y), before + 0.02F);
}

}  // namespace
}  // namespace usb
