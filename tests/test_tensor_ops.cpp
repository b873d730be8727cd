// Tests for the dense kernels: matmul, im2col/col2im adjointness, conv2d
// forward/backward against naive references and finite differences,
// pooling, softmax, and the SSIM filter primitives (bitwise against the
// tap-serial loops, on both dispatch variants and a 4-thread pool).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/elementwise.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

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

TEST(Filter2d, RejectsKernelsThatAreNotSquareMatrices) {
  // A rank-1 kernel of n taps read as n x n runs past its end; a non-square
  // one would be read with the wrong row stride.
  const Tensor x(Shape{1, 1, 6, 6});
  const Tensor g(Shape{1, 1, 4, 4});
  const Tensor rank1(Shape{3});
  const Tensor non_square(Shape{3, 2});
  Tensor out;
  for (const Tensor* kernel : {&rank1, &non_square}) {
    EXPECT_THROW(filter2d_valid_into(x, *kernel, out), std::invalid_argument);
    EXPECT_THROW(filter2d_full_adjoint_into(g, *kernel, out), std::invalid_argument);
  }
}

// The tap-serial loops the column-blocked filters replaced, kept as the
// bitwise reference: one double chain per output, taps in (a, b) order.
void tap_serial_valid(const Tensor& x, const Tensor& kernel, Tensor& y) {
  const std::int64_t k = kernel.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = height - k + 1;
  const std::int64_t out_w = width - k + 1;
  y = Tensor(Shape{x.dim(0), x.dim(1), out_h, out_w});
  for (std::int64_t plane = 0; plane < x.dim(0) * x.dim(1); ++plane) {
    const float* x_p = x.raw() + plane * height * width;
    float* y_p = y.raw() + plane * out_h * out_w;
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        double acc = 0.0;
        for (std::int64_t a = 0; a < k; ++a) {
          const float* x_row = x_p + (oh + a) * width + ow;
          const float* k_row = kernel.raw() + a * k;
          for (std::int64_t b = 0; b < k; ++b) acc += static_cast<double>(x_row[b]) * k_row[b];
        }
        y_p[oh * out_w + ow] = static_cast<float>(acc);
      }
    }
  }
}

void tap_serial_full_adjoint(const Tensor& g, const Tensor& kernel, Tensor& dx) {
  const std::int64_t k = kernel.dim(0);
  const std::int64_t gh = g.dim(2);
  const std::int64_t gw = g.dim(3);
  const std::int64_t out_h = gh + k - 1;
  const std::int64_t out_w = gw + k - 1;
  dx = Tensor(Shape{g.dim(0), g.dim(1), out_h, out_w});
  for (std::int64_t plane = 0; plane < g.dim(0) * g.dim(1); ++plane) {
    const float* g_p = g.raw() + plane * gh * gw;
    float* dx_p = dx.raw() + plane * out_h * out_w;
    for (std::int64_t p = 0; p < out_h; ++p) {
      for (std::int64_t q = 0; q < out_w; ++q) {
        double acc = 0.0;
        const std::int64_t a_lo = std::max<std::int64_t>(0, p - gh + 1);
        const std::int64_t a_hi = std::min<std::int64_t>(k - 1, p);
        const std::int64_t b_lo = std::max<std::int64_t>(0, q - gw + 1);
        const std::int64_t b_hi = std::min<std::int64_t>(k - 1, q);
        for (std::int64_t a = a_lo; a <= a_hi; ++a) {
          const float* g_row = g_p + (p - a) * gw;
          const float* k_row = kernel.raw() + a * k;
          for (std::int64_t b = b_lo; b <= b_hi; ++b) {
            acc += static_cast<double>(g_row[q - b]) * k_row[b];
          }
        }
        dx_p[p * out_w + q] = static_cast<float>(acc);
      }
    }
  }
}

/// Inputs whose double sums depend on the order of their adds: an eighth
/// of the elements are +2^40 and an eighth -2^40, the rest uniform in
/// [-1, 1], with every 5th element +0.0 and every 7th -0.0. While a +-2^40
/// product is live in a sum, the small terms added lose their low bits;
/// once the large products cancel exactly, which small terms lost bits
/// shows in the float output. So a kernel that reordered the taps fails
/// here, not only one that rounded differently.
Tensor order_sensitive_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float u = rng.uniform_float(0.0F, 1.0F);
    t[i] = u < 0.125F ? 0x1p40F : u < 0.25F ? -0x1p40F : rng.uniform_float(-1.0F, 1.0F);
  }
  for (std::int64_t i = 0; i < t.numel(); i += 5) t[i] = 0.0F;
  for (std::int64_t i = 0; i < t.numel(); i += 7) t[i] = -0.0F;
  return t;
}

/// Half the taps +-1 (so that large products cancel exactly), the rest
/// uniform in [-1, 1]: not symmetric, with negative taps.
Tensor order_sensitive_kernel(std::int64_t k, Rng& rng) {
  Tensor kernel(Shape{k, k});
  for (std::int64_t i = 0; i < kernel.numel(); ++i) {
    const float u = rng.uniform_float(-1.0F, 1.0F);
    kernel[i] = rng.uniform_float(0.0F, 1.0F) < 0.5F ? (u < 0.0F ? -1.0F : 1.0F) : u;
  }
  return kernel;
}

void expect_same_bits(const Tensor& got, const Tensor& want, const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  EXPECT_TRUE(got.equals(want)) << label;
  const std::size_t bytes = sizeof(float) * static_cast<std::size_t>(got.numel());
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), bytes), 0) << label;
}

struct FilterCase {
  Tensor x;       // (2, 3, H, W), H != W
  Tensor g;       // shaped like the valid output
  Tensor kernel;  // (k, k), not symmetric, negative taps
  Tensor valid;   // tap-serial references
  Tensor adjoint;
  std::string label;
};

struct VariantGuard {
  ~VariantGuard() { ew::force_variant(std::nullopt); }
};

TEST(Filter2d, MatchesTapSerialReferenceBitwise) {
  // Output widths on both sides of the 12-column block and its lane groups,
  // with kernels from a single tap to SSIM's 11 x 11 window.
  Rng rng(23);
  std::vector<FilterCase> cases;
  for (const std::int64_t out_w : {1, 11, 12, 13, 22}) {
    for (const std::int64_t k : {1, 3, 11}) {
      FilterCase c;
      const std::int64_t out_h = 7;
      c.x = order_sensitive_input(Shape{2, 3, out_h + k - 1, out_w + k - 1}, rng);
      c.g = order_sensitive_input(Shape{2, 3, out_h, out_w}, rng);
      c.kernel = order_sensitive_kernel(k, rng);
      tap_serial_valid(c.x, c.kernel, c.valid);
      tap_serial_full_adjoint(c.g, c.kernel, c.adjoint);
      c.label = "out_w=" + std::to_string(out_w) + " k=" + std::to_string(k);
      cases.push_back(std::move(c));
    }
  }

  const VariantGuard guard;
  std::vector<ew::Variant> variants{ew::Variant::kPortable};
  if (ew::variant_available(ew::Variant::kAvx2)) variants.push_back(ew::Variant::kAvx2);
  ThreadPool pool(4);
  for (const ew::Variant variant : variants) {
    ew::force_variant(variant);
    const std::string tag = variant == ew::Variant::kAvx2 ? " avx2" : " portable";
    for (const FilterCase& c : cases) {
      Tensor y;
      Tensor dx;
      filter2d_valid_into(c.x, c.kernel, y);
      filter2d_full_adjoint_into(c.g, c.kernel, dx);
      expect_same_bits(y, c.valid, c.label + tag + " valid");
      expect_same_bits(dx, c.adjoint, c.label + tag + " adjoint");
    }
    // Every case again, spread over four pool workers, each filtering with
    // its own thread-local scratch.
    const auto n = static_cast<std::int64_t>(cases.size());
    std::vector<Tensor> ys(cases.size());
    std::vector<Tensor> dxs(cases.size());
    pool.parallel_for(n, [&](std::int64_t begin, std::int64_t end, int /*worker*/) {
      for (std::int64_t i = begin; i < end; ++i) {
        const auto u = static_cast<std::size_t>(i);
        filter2d_valid_into(cases[u].x, cases[u].kernel, ys[u]);
        filter2d_full_adjoint_into(cases[u].g, cases[u].kernel, dxs[u]);
      }
    });
    for (std::size_t u = 0; u < cases.size(); ++u) {
      expect_same_bits(ys[u], cases[u].valid, cases[u].label + tag + " valid, pool of 4");
      expect_same_bits(dxs[u], cases[u].adjoint, cases[u].label + tag + " adjoint, pool of 4");
    }
  }
}

}  // namespace
}  // namespace usb
