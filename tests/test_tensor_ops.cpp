// Tests for the dense kernels: matmul, im2col/col2im adjointness, conv2d
// forward/backward against naive references and finite differences,
// pooling, softmax, and the SSIM filter primitives.
#include <cmath>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {
namespace {

using testing::expect_gradient_close;
using testing::fill_uniform;

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a.at2(i, p)) * b.at2(p, j);
      c.at2(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(MatMul, MatchesNaive) {
  Rng rng(1);
  Tensor a(Shape{7, 5});
  Tensor b(Shape{5, 9});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Tensor c;
  matmul_into(a, b, c);
  const Tensor ref = naive_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4F);
}

TEST(MatMul, TransposeBMatchesExplicit) {
  // The A x B^T orientation (Linear forward, conv dW) is a direct gemm call.
  Rng rng(2);
  Tensor a(Shape{4, 6});
  Tensor b(Shape{3, 6});  // stands for B^T with B (6,3)
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Tensor b_t(Shape{6, 3});
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) b_t.at2(j, i) = b.at2(i, j);
  }
  const Tensor expected = naive_matmul(a, b_t);
  Tensor got(Shape{4, 3});
  gemm(/*transpose_a=*/false, /*transpose_b=*/true, 4, 3, 6, a.raw(), 6, b.raw(), 6, got.raw(), 3,
       /*accumulate=*/false);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4F);
}

TEST(MatMul, TransposeAMatchesExplicit) {
  Rng rng(3);
  Tensor a(Shape{6, 4});  // stands for A^T with A (4,6)
  Tensor b(Shape{6, 5});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Tensor a_t(Shape{4, 6});
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) a_t.at2(j, i) = a.at2(i, j);
  }
  const Tensor expected = naive_matmul(a_t, b);
  Tensor got;
  matmul_transpose_a_into(a, b, got);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4F);
}

TEST(MatMul, RejectsBadShapes) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 5});
  Tensor c;
  EXPECT_THROW(matmul_into(a, b, c), std::invalid_argument);
}

// Naive direct convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t wd = x.dim(3);
  const std::int64_t oh = spec.out_size(h);
  const std::int64_t ow = spec.out_size(wd);
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  Tensor y(Shape{batch, spec.out_channels, oh, ow});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
      const std::int64_t g = oc / group_out;
      for (std::int64_t p = 0; p < oh; ++p) {
        for (std::int64_t q = 0; q < ow; ++q) {
          double acc = bias.numel() > 0 ? bias[oc] : 0.0;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
                const std::int64_t ih = p * spec.stride - spec.padding + kh;
                const std::int64_t iw = q * spec.stride - spec.padding + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                acc += static_cast<double>(x.at4(n, g * group_in + ic, ih, iw)) *
                       w[((oc * group_in + ic) * spec.kernel + kh) * spec.kernel + kw];
              }
            }
          }
          y.at4(n, oc, p, q) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

struct ConvCase {
  Conv2dSpec spec;
  std::int64_t image = 8;
  std::int64_t batch = 2;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, ForwardMatchesNaive) {
  const ConvCase tc = GetParam();
  Rng rng(11);
  Tensor x(Shape{tc.batch, tc.spec.in_channels, tc.image, tc.image});
  Tensor w(tc.spec.weight_shape());
  Tensor b(Shape{tc.spec.out_channels});
  fill_uniform(x, rng);
  fill_uniform(w, rng, -0.5F, 0.5F);
  fill_uniform(b, rng, -0.2F, 0.2F);
  Tensor y;
  conv2d_forward_into(x, w, b, tc.spec, y);
  const Tensor ref = naive_conv(x, w, b, tc.spec);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-3F);
}

TEST_P(ConvParamTest, BackwardMatchesFiniteDifference) {
  const ConvCase tc = GetParam();
  Rng rng(13);
  Tensor x(Shape{tc.batch, tc.spec.in_channels, tc.image, tc.image});
  Tensor w(tc.spec.weight_shape());
  Tensor b(Shape{tc.spec.out_channels});
  fill_uniform(x, rng);
  fill_uniform(w, rng, -0.5F, 0.5F);
  fill_uniform(b, rng, -0.2F, 0.2F);

  // Loss = weighted sum of the output with fixed random weights.
  Tensor y0;
  conv2d_forward_into(x, w, b, tc.spec, y0);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng, -1.0F, 1.0F);
  Tensor dx;
  Tensor dweight;
  Tensor dbias;
  conv2d_backward_into(x, w, dy, tc.spec, /*need_dx=*/true, /*need_dweight=*/true, &dx, &dweight,
                       &dbias);

  Tensor y;
  auto loss_of_x = [&](const Tensor& probe) {
    conv2d_forward_into(probe, w, b, tc.spec, y);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  auto loss_of_w = [&](const Tensor& probe) {
    conv2d_forward_into(x, probe, b, tc.spec, y);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss_of_x, x, dx);
  expect_gradient_close(loss_of_w, w, dweight);

  // Bias gradient: dL/db[oc] = sum of dy over batch and spatial for oc.
  for (std::int64_t oc = 0; oc < tc.spec.out_channels; ++oc) {
    double expected = 0.0;
    const std::int64_t spatial = y0.dim(2) * y0.dim(3);
    for (std::int64_t n = 0; n < tc.batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        expected += dy[(n * tc.spec.out_channels + oc) * spatial + s];
      }
    }
    EXPECT_NEAR(dbias[oc], expected, 1e-3);
  }
}

Conv2dSpec make_spec(std::int64_t in, std::int64_t out, std::int64_t k, std::int64_t stride,
                     std::int64_t pad, std::int64_t groups) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = k;
  spec.stride = stride;
  spec.padding = pad;
  spec.groups = groups;
  return spec;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{make_spec(3, 4, 3, 1, 1, 1), 8, 2},   // padded 3x3
                      ConvCase{make_spec(2, 6, 3, 2, 1, 1), 9, 2},   // strided
                      ConvCase{make_spec(1, 4, 5, 1, 0, 1), 10, 1},  // 5x5 valid
                      ConvCase{make_spec(4, 4, 3, 1, 1, 4), 6, 2},   // depthwise
                      ConvCase{make_spec(4, 8, 1, 1, 0, 1), 5, 2},   // pointwise
                      ConvCase{make_spec(4, 6, 3, 2, 1, 2), 8, 1})); // grouped strided

TEST(Im2Col, RoundTripAdjoint) {
  // col2im is the exact transpose of im2col:
  // <im2col(x), c> == <x, col2im(c)> for all x, c.
  Rng rng(5);
  const std::int64_t channels = 2;
  const std::int64_t size = 6;
  const std::int64_t kernel = 3;
  const std::int64_t stride = 2;
  const std::int64_t padding = 1;
  const std::int64_t out = (size + 2 * padding - kernel) / stride + 1;
  const std::int64_t col_numel = channels * kernel * kernel * out * out;

  Tensor x(Shape{channels, size, size});
  fill_uniform(x, rng);
  std::vector<float> col(static_cast<std::size_t>(col_numel));
  im2col(x.raw(), channels, size, size, kernel, stride, padding, col.data());

  std::vector<float> c(static_cast<std::size_t>(col_numel));
  Rng rng2(6);
  for (float& v : c) v = rng2.uniform_float(-1.0F, 1.0F);

  Tensor back(Shape{channels, size, size});
  col2im(c.data(), channels, size, size, kernel, stride, padding, back.raw());

  double lhs = 0.0;
  for (std::int64_t i = 0; i < col_numel; ++i) {
    lhs += static_cast<double>(col[static_cast<std::size_t>(i)]) * c[static_cast<std::size_t>(i)];
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(MaxPool, ForwardAndBackward) {
  const Tensor x(Shape{1, 1, 4, 4},
                 {1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12, 15, 16});
  const Pool2dSpec spec{2, 2};
  Tensor y;
  std::vector<std::int64_t> argmax;
  maxpool2d_forward_into(x, spec, y, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 4.0F);
  EXPECT_EQ(y[3], 16.0F);

  const Tensor dy(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
  Tensor dx;
  maxpool2d_backward_into(dy, argmax, x.shape(), dx);
  EXPECT_EQ(dx.at4(0, 0, 1, 1), 1.0F);   // position of 4
  EXPECT_EQ(dx.at4(0, 0, 3, 3), 1.0F);   // position of 16
  EXPECT_EQ(dx.at4(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(dx.sum(), 4.0F);
}

TEST(AvgPool, ForwardBackwardConsistency) {
  Rng rng(9);
  Tensor x(Shape{2, 3, 6, 6});
  fill_uniform(x, rng);
  const Pool2dSpec spec{2, 2};
  Tensor y;
  avgpool2d_forward_into(x, spec, y);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 3, 3}));
  EXPECT_NEAR(y.at4(0, 0, 0, 0),
              0.25F * (x.at4(0, 0, 0, 0) + x.at4(0, 0, 0, 1) + x.at4(0, 0, 1, 0) +
                       x.at4(0, 0, 1, 1)),
              1e-5F);

  Tensor dy(y.shape());
  fill_uniform(dy, rng);
  Tensor dx;
  avgpool2d_backward_into(dy, x.shape(), spec, dx);
  Tensor out;
  auto loss = [&](const Tensor& probe) {
    avgpool2d_forward_into(probe, spec, out);
    double total = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) total += static_cast<double>(out[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss, x, dx);
}

TEST(GlobalAvgPool, MeanAndGradient) {
  Rng rng(10);
  Tensor x(Shape{2, 4, 5, 5});
  fill_uniform(x, rng);
  Tensor y;
  global_avgpool_forward_into(x, y);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 1, 1}));
  double manual = 0.0;
  for (std::int64_t s = 0; s < 25; ++s) manual += x[s];
  EXPECT_NEAR(y[0], manual / 25.0, 1e-5);

  Tensor dy(y.shape());
  fill_uniform(dy, rng);
  Tensor dx;
  global_avgpool_backward_into(dy, x.shape(), dx);
  EXPECT_NEAR(dx[0], dy[0] / 25.0F, 1e-6F);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const Tensor logits(Shape{2, 3}, {1.0F, 2.0F, 3.0F, -1.0F, -1.0F, -1.0F});
  Tensor probs;
  softmax_rows_into(logits, probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0F, 1e-5F);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_NEAR(probs[3], 1.0F / 3.0F, 1e-5F);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor logits(Shape{1, 2}, {1000.0F, 999.0F});
  Tensor probs;
  softmax_rows_into(logits, probs);
  EXPECT_TRUE(std::isfinite(probs[0]));
  EXPECT_GT(probs[0], probs[1]);
}

TEST(ArgmaxRows, PicksFirstMaximum) {
  const Tensor logits(Shape{2, 3}, {0.0F, 5.0F, 1.0F, 7.0F, 2.0F, 7.0F});
  const auto result = argmax_rows(logits);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 0);  // ties break to the first index
}

TEST(GaussianKernel, NormalizedAndSymmetric) {
  const Tensor k = gaussian_kernel(11, 1.5);
  EXPECT_NEAR(k.sum(), 1.0F, 1e-5F);
  EXPECT_NEAR(k.at2(0, 0), k.at2(10, 10), 1e-7F);
  EXPECT_GT(k.at2(5, 5), k.at2(0, 0));
}

TEST(Filter2d, ValidAgainstManual) {
  const Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor kernel(Shape{2, 2}, {1, 0, 0, 1});
  Tensor y;
  filter2d_valid_into(x, kernel, y);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 1.0F + 5.0F);
  EXPECT_EQ(y[3], 5.0F + 9.0F);
}

TEST(Filter2d, FullAdjointIsTransposeOfValid) {
  // <filter2d_valid_into(x, k), g> == <x, filter2d_full_adjoint_into(g, k)>.
  Rng rng(21);
  Tensor x(Shape{2, 3, 9, 9});
  fill_uniform(x, rng);
  const Tensor kernel = gaussian_kernel(5, 1.2);
  Tensor y;
  filter2d_valid_into(x, kernel, y);
  Tensor g(y.shape());
  fill_uniform(g, rng);
  Tensor adj;
  filter2d_full_adjoint_into(g, kernel, adj);
  ASSERT_EQ(adj.shape(), x.shape());

  double lhs = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += static_cast<double>(y[i]) * g[i];
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * adj[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace usb
