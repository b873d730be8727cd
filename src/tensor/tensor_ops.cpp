#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/elementwise.h"
#include "tensor/simd_common.h"
#include "utils/thread_pool.h"

namespace usb {
namespace {

void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

/// im2col with an explicit distance between consecutive column-matrix rows,
/// so several samples can be unfolded side by side into one wide (C*K*K,
/// N*OH*OW) matrix that feeds a single packed-B GEMM per group. Row r of the
/// unfold starts at col + r * col_row_stride.
void im2col_strided(const float* x, std::int64_t channels, std::int64_t height,
                    std::int64_t width, std::int64_t kernel, std::int64_t stride,
                    std::int64_t padding, float* col, std::int64_t col_row_stride) {
  const std::int64_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * padding - kernel) / stride + 1;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* x_channel = x + c * height * width;
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        float* col_row = col + row * col_row_stride;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - padding + kh;
          float* col_out = col_row + oh * out_w;
          if (ih < 0 || ih >= height) {
            std::fill(col_out, col_out + out_w, 0.0F);
            continue;
          }
          const float* x_row = x_channel + ih * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - padding + kw;
            col_out[ow] = (iw >= 0 && iw < width) ? x_row[iw] : 0.0F;
          }
        }
      }
    }
  }
}

/// Upper bound on the batched im2col block, in floats (16 MiB). Derived only
/// from sizes — never from the thread count — so the per-sample blocking
/// (and therefore every float) is identical for any USB_THREADS.
constexpr std::int64_t kMaxColBlockFloats = std::int64_t{4} << 20;

}  // namespace

Im2colWorkspace& Im2colWorkspace::local() {
  thread_local Im2colWorkspace workspace;
  return workspace;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimensions differ");
  out.ensure_shape(Shape{m, n});
  gemm(/*transpose_a=*/false, /*transpose_b=*/false, m, n, k, a.raw(), k, b.raw(), n, out.raw(),
       n, /*accumulate=*/false);
}

void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_transpose_a: rank-2 tensors required");
  const std::int64_t k = a.dim(0);
  const std::int64_t m = a.dim(1);
  const std::int64_t n = b.dim(1);
  require(b.dim(0) == k, "matmul_transpose_a: inner dimensions differ");
  out.ensure_shape(Shape{m, n});
  gemm(/*transpose_a=*/true, /*transpose_b=*/false, m, n, k, a.raw(), m, b.raw(), n, out.raw(), n,
       /*accumulate=*/false);
}

void im2col(const float* x, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* col) {
  const std::int64_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * padding - kernel) / stride + 1;
  im2col_strided(x, channels, height, width, kernel, stride, padding, col, out_h * out_w);
}

void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* x) {
  const std::int64_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * padding - kernel) / stride + 1;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    float* x_channel = x + c * height * width;
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        const float* col_row = col + row * out_h * out_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - padding + kh;
          if (ih < 0 || ih >= height) continue;
          float* x_row = x_channel + ih * width;
          const float* col_in = col_row + oh * out_w;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - padding + kw;
            if (iw >= 0 && iw < width) x_row[iw] += col_in[ow];
          }
        }
      }
    }
  }
}

void conv2d_forward_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                         const Conv2dSpec& spec, Tensor& y) {
  require(x.rank() == 4, "conv2d: input must be NCHW");
  require(x.dim(1) == spec.in_channels, "conv2d: in_channels mismatch");
  require(weight.shape() == spec.weight_shape(), "conv2d: weight shape mismatch");
  require(spec.in_channels % spec.groups == 0 && spec.out_channels % spec.groups == 0,
          "conv2d: channels not divisible by groups");
  const std::int64_t batch = x.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  require(out_h > 0 && out_w > 0, "conv2d: output size would be non-positive");
  const std::int64_t spatial = out_h * out_w;
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  const std::int64_t kk = spec.kernel * spec.kernel;

  y.ensure_shape(Shape{batch, spec.out_channels, out_h, out_w});
  const bool has_bias = bias.numel() > 0;
  if (has_bias) require(bias.numel() == spec.out_channels, "conv2d: bias size mismatch");

  // Batched im2col + one packed-B GEMM per group: all samples of a block are
  // unfolded side by side into a (IC*K*K, BN*OH*OW) matrix so the weight
  // panel is packed once per group instead of once per sample. The block
  // size is capped (size-derived, thread-count independent) to bound the
  // workspace; typical probe batches fit in one block.
  const std::int64_t patch = group_in * kk;          // GEMM K per group
  const std::int64_t col_rows = spec.in_channels * kk;
  if (batch == 0) return;
  const std::int64_t block =
      std::clamp(kMaxColBlockFloats / std::max<std::int64_t>(1, col_rows * spatial),
                 std::int64_t{1}, batch);
  Im2colWorkspace& ws = Im2colWorkspace::local();

  for (std::int64_t n0 = 0; n0 < batch; n0 += block) {
    const std::int64_t bn = std::min(block, batch - n0);
    const std::int64_t cols = bn * spatial;
    float* const col = ws.col(static_cast<std::size_t>(col_rows * cols));
    // Guards the pointer-stability invariant: nothing below may regrow the
    // col slot while `col` is live (checked again after the group loop).
    [[maybe_unused]] const std::size_t col_capacity_in_use = ws.col_capacity();
    // Each sample owns columns [j*spatial, (j+1)*spatial) — disjoint writes,
    // so the unfold is tile-parallel over samples.
    parallel_for_deterministic(bn, [&](std::int64_t j) {
      const float* x_n = x.raw() + (n0 + j) * spec.in_channels * height * width;
      im2col_strided(x_n, spec.in_channels, height, width, spec.kernel, spec.stride, spec.padding,
                     col + j * spatial, cols);
    });
    for (std::int64_t g = 0; g < spec.groups; ++g) {
      const float* w_g = weight.raw() + g * group_out * patch;
      const float* col_g = col + g * patch * cols;
      // The staging buffer is a separate workspace slot, so requesting it
      // must never invalidate `col`.
      float* const staged = ws.gemm_out(static_cast<std::size_t>(group_out * cols));
      assert(ws.col_capacity() == col_capacity_in_use);
      gemm(/*transpose_a=*/false, /*transpose_b=*/false, group_out, cols, patch, w_g, patch,
           col_g, cols, staged, cols, /*accumulate=*/false);
      // Scatter the (OCg, BN*S) GEMM block back to NCHW, fusing the bias add
      // into the same pass.
      parallel_for_deterministic(bn, [&](std::int64_t j) {
        for (std::int64_t oc = 0; oc < group_out; ++oc) {
          const float* src = staged + oc * cols + j * spatial;
          float* dst = y.raw() + ((n0 + j) * spec.out_channels + g * group_out + oc) * spatial;
          if (has_bias) {
            const float b = bias[g * group_out + oc];
            for (std::int64_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
          } else {
            std::copy(src, src + spatial, dst);
          }
        }
      });
    }
    assert(ws.col_capacity() == col_capacity_in_use &&
           "col block regrown while its pointer was live");
  }
}

void conv2d_backward_into(const Tensor& x, const Tensor& weight, const Tensor& dy,
                          const Conv2dSpec& spec, bool need_dx, bool need_dweight, Tensor* dx,
                          Tensor* dweight, Tensor* dbias) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  const std::int64_t spatial = out_h * out_w;
  require(dy.rank() == 4 && dy.dim(0) == batch && dy.dim(1) == spec.out_channels &&
              dy.dim(2) == out_h && dy.dim(3) == out_w,
          "conv2d_backward: dy shape mismatch");
  need_dx = need_dx && dx != nullptr;
  need_dweight = need_dweight && dweight != nullptr && dbias != nullptr;
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  const std::int64_t kk = spec.kernel * spec.kernel;

  if (need_dweight) {
    dweight->ensure_shape(weight.shape());
    dweight->fill(0.0F);
    dbias->ensure_shape(Shape{spec.out_channels});
    dbias->fill(0.0F);
  }
  if (need_dx) {
    // col2im accumulates, so the target must start zeroed.
    dx->ensure_shape(x.shape());
    dx->fill(0.0F);
  }

  const std::int64_t patch = group_in * kk;
  const std::int64_t col_numel = spec.in_channels * kk * spatial;

  // Per-chunk weight/bias accumulators keep the parallel reduction
  // deterministic: chunks are statically partitioned and reduced in order.
  // Only materialized when dW/db are actually requested — the frozen-model
  // detection path (need_dweight=false) then allocates nothing here.
  ThreadPool& pool = ThreadPool::global();
  const auto max_chunks = static_cast<std::size_t>(std::max(1, pool.size()));
  std::vector<Tensor> dw_parts;
  std::vector<Tensor> db_parts;
  if (need_dweight) {
    dw_parts.assign(max_chunks, Tensor(weight.shape()));
    db_parts.assign(max_chunks, Tensor(Shape{spec.out_channels}));
  }

  pool.parallel_for(batch, [&](std::int64_t begin, std::int64_t end, int worker) {
    // Thread-local scratch, grown once and reused across every sample and
    // every backward call: the steady-state loop is allocation-free.
    Im2colWorkspace& ws = Im2colWorkspace::local();
    float* const col = need_dweight ? ws.col(static_cast<std::size_t>(col_numel)) : nullptr;
    float* const dcol = need_dx ? ws.dcol(static_cast<std::size_t>(col_numel)) : nullptr;
    // col and dcol are distinct workspace slots (the dW gemm reads col while
    // dcol is being written), and neither may regrow while the per-sample
    // loop holds their pointers — checked after the loop.
    assert(col == nullptr || col != dcol);
    [[maybe_unused]] const std::size_t col_capacity_in_use = ws.col_capacity();
    [[maybe_unused]] const std::size_t dcol_capacity_in_use = ws.dcol_capacity();
    for (std::int64_t n = begin; n < end; ++n) {
      const float* x_n = x.raw() + n * spec.in_channels * height * width;
      const float* dy_n = dy.raw() + n * spec.out_channels * spatial;
      if (need_dweight) {
        // The unfolded input is only consumed by the dW gemm.
        im2col(x_n, spec.in_channels, height, width, spec.kernel, spec.stride, spec.padding, col);
      }
      for (std::int64_t g = 0; g < spec.groups; ++g) {
        const float* dy_g = dy_n + g * group_out * spatial;
        if (need_dweight) {
          const float* col_g = col + g * patch * spatial;
          float* dw_g = dw_parts[static_cast<std::size_t>(worker)].raw() + g * group_out * patch;
          // dW_g += dy_g (OCg,S) x col_g^T (S, ICg*K*K)
          gemm(/*transpose_a=*/false, /*transpose_b=*/true, group_out, patch, spatial, dy_g,
               spatial, col_g, spatial, dw_g, patch, /*accumulate=*/true);
        }
        if (need_dx) {
          const float* w_g = weight.raw() + g * group_out * patch;
          float* dcol_g = dcol + g * patch * spatial;
          // dcol_g = W_g^T (ICg*K*K, OCg) x dy_g (OCg, S)
          gemm(/*transpose_a=*/true, /*transpose_b=*/false, patch, spatial, group_out, w_g, patch,
               dy_g, spatial, dcol_g, spatial, /*accumulate=*/false);
        }
      }
      if (need_dweight) {
        Tensor& db_local = db_parts[static_cast<std::size_t>(worker)];
        for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
          const float* dy_c = dy_n + oc * spatial;
          double acc = 0.0;
          for (std::int64_t s = 0; s < spatial; ++s) acc += dy_c[s];
          db_local[oc] += static_cast<float>(acc);
        }
      }
      if (need_dx) {
        float* dx_n = dx->raw() + n * spec.in_channels * height * width;
        col2im(dcol, spec.in_channels, height, width, spec.kernel, spec.stride, spec.padding,
               dx_n);
      }
    }
    assert(ws.col_capacity() == col_capacity_in_use &&
           ws.dcol_capacity() == dcol_capacity_in_use &&
           "im2col scratch regrown while its pointers were live");
  });

  if (need_dweight) {
    for (std::size_t part = 0; part < max_chunks; ++part) {
      *dweight += dw_parts[part];
      *dbias += db_parts[part];
    }
  }
}

void maxpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y,
                            std::vector<std::int64_t>& argmax) {
  require(x.rank() == 4, "maxpool2d: input must be NCHW");
  const std::int64_t batch = x.dim(0);
  const std::int64_t channels = x.dim(1);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  require(out_h > 0 && out_w > 0, "maxpool2d: output would be empty");

  y.ensure_shape(Shape{batch, channels, out_h, out_w});
  argmax.resize(static_cast<std::size_t>(batch * channels * out_h * out_w));
  const std::int64_t planes = batch * channels;
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* x_p = x.raw() + plane * height * width;
      float* y_p = y.raw() + plane * out_h * out_w;
      std::int64_t* idx_p = argmax.data() + plane * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          const std::int64_t h0 = oh * spec.stride;
          const std::int64_t w0 = ow * spec.stride;
          float best = x_p[h0 * width + w0];
          std::int64_t best_index = h0 * width + w0;
          for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
            for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
              const std::int64_t index = (h0 + kh) * width + (w0 + kw);
              if (x_p[index] > best) {
                best = x_p[index];
                best_index = index;
              }
            }
          }
          y_p[oh * out_w + ow] = best;
          idx_p[oh * out_w + ow] = plane * height * width + best_index;
        }
      }
    }
  });
}

void maxpool2d_backward_into(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                             const Shape& x_shape, Tensor& dx) {
  dx.ensure_shape(x_shape);
  dx.fill(0.0F);  // scatter-accumulate target
  const float* dy_data = dy.raw();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    dx[argmax[i]] += dy_data[i];
  }
}

void avgpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y) {
  require(x.rank() == 4, "avgpool2d: input must be NCHW");
  const std::int64_t batch = x.dim(0);
  const std::int64_t channels = x.dim(1);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  const float inv_area = 1.0F / static_cast<float>(spec.kernel * spec.kernel);

  y.ensure_shape(Shape{batch, channels, out_h, out_w});
  const std::int64_t planes = batch * channels;
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* x_p = x.raw() + plane * height * width;
      float* y_p = y.raw() + plane * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          double acc = 0.0;
          for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
            for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
              acc += x_p[(oh * spec.stride + kh) * width + (ow * spec.stride + kw)];
            }
          }
          y_p[oh * out_w + ow] = static_cast<float>(acc) * inv_area;
        }
      }
    }
  });
}

void avgpool2d_backward_into(const Tensor& dy, const Shape& x_shape, const Pool2dSpec& spec,
                             Tensor& dx) {
  dx.ensure_shape(x_shape);
  dx.fill(0.0F);  // overlapping windows accumulate
  const std::int64_t height = x_shape[2];
  const std::int64_t width = x_shape[3];
  const std::int64_t out_h = dy.dim(2);
  const std::int64_t out_w = dy.dim(3);
  const float inv_area = 1.0F / static_cast<float>(spec.kernel * spec.kernel);
  const std::int64_t planes = dy.dim(0) * dy.dim(1);
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float* dy_p = dy.raw() + plane * out_h * out_w;
    float* dx_p = dx.raw() + plane * height * width;
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        const float g = dy_p[oh * out_w + ow] * inv_area;
        for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
          for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
            dx_p[(oh * spec.stride + kh) * width + (ow * spec.stride + kw)] += g;
          }
        }
      }
    }
  }
}

void global_avgpool_forward_into(const Tensor& x, Tensor& y) {
  require(x.rank() == 4, "global_avgpool: input must be NCHW");
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const std::int64_t spatial = x.dim(2) * x.dim(3);
  y.ensure_shape(Shape{x.dim(0), x.dim(1), 1, 1});
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float* x_p = x.raw() + plane * spatial;
    double acc = 0.0;
    for (std::int64_t s = 0; s < spatial; ++s) acc += x_p[s];
    y[plane] = static_cast<float>(acc / static_cast<double>(spatial));
  }
}

void global_avgpool_backward_into(const Tensor& dy, const Shape& x_shape, Tensor& dx) {
  dx.ensure_shape(x_shape);
  const std::int64_t planes = x_shape[0] * x_shape[1];
  const std::int64_t spatial = x_shape[2] * x_shape[3];
  const float inv = 1.0F / static_cast<float>(spatial);
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float g = dy[plane] * inv;
    float* dx_p = dx.raw() + plane * spatial;
    for (std::int64_t s = 0; s < spatial; ++s) dx_p[s] = g;
  }
}

void softmax_rows_into(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2, "softmax_rows: rank-2 input required");
  probs.ensure_shape(logits.shape());
  ew::softmax_rows(logits.raw(), probs.raw(), logits.dim(0), logits.dim(1));
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  require(logits.rank() == 2, "argmax_rows: rank-2 input required");
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.raw() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (in[c] > in[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

void gaussian_kernel_into(std::int64_t size, double sigma, Tensor& kernel) {
  require(size > 0 && sigma > 0.0, "gaussian_kernel: size and sigma must be positive");
  kernel.ensure_shape(Shape{size, size});
  const double center = static_cast<double>(size - 1) / 2.0;
  double total = 0.0;
  for (std::int64_t a = 0; a < size; ++a) {
    for (std::int64_t b = 0; b < size; ++b) {
      const double da = static_cast<double>(a) - center;
      const double db = static_cast<double>(b) - center;
      const double value = std::exp(-(da * da + db * db) / (2.0 * sigma * sigma));
      kernel.at2(a, b) = static_cast<float>(value);
      total += value;
    }
  }
  const auto inv = static_cast<float>(1.0 / total);
  for (std::int64_t i = 0; i < kernel.numel(); ++i) kernel[i] *= inv;
}

Tensor gaussian_kernel(std::int64_t size, double sigma) {
  Tensor kernel;
  gaussian_kernel_into(size, sigma, kernel);
  return kernel;
}

namespace {

// Both Gaussian filters run one tap kernel over a double copy of each input
// plane. Output columns go in blocks of kFilterBlock, one column per double
// lane, and each lane adds its column's products in the (a, b) order of the
// tap-serial loop, starting at +0.0. That keeps every output's bits:
//  - a float x float product is exact in double;
//  - the adjoint's zero columns add a ±0.0 product (the kernel is finite)
//    to a round-to-nearest sum that starts at +0.0 and so is never -0.0,
//    which leaves the sum unchanged; its tap rows that would read outside g
//    are skipped, as the tap-serial loop skipped them.
// Lanes past the last output column read the plane's zero slack and are
// discarded.
constexpr std::int64_t kFilterBlock = 12;  // 3 lanes of 4 doubles

/// Thread-local double scratch of the filters: the widened kernel and one
/// widened input plane with its slack. Grows, never shrinks, so a
/// steady-state SSIM step allocates nothing.
struct FilterScratch {
  std::vector<double> taps;
  std::vector<double> plane;

  static FilterScratch& local() {
    thread_local FilterScratch scratch;
    return scratch;
  }
};

double* grow(std::vector<double>& buffer, std::size_t count) {
  if (buffer.size() < count) {
    buffer.reserve(count);  // exactly `count`, so ASan flags a read past it
    buffer.resize(count);
  }
  return buffer.data();
}

/// out (out_h, out_w) = per output (r, c), the double sum over taps (a, b)
/// in row-major order of src[(r + step*a) * stride + c + o + step*b] *
/// taps[a*k + b], over the tap rows a whose source row lies in [0, rows).
/// step +1, o = 0 is the valid filter; step -1, o = k-1 is the adjoint,
/// reading its input k-1 zero columns in with the taps reversed. src must
/// hold every column up to the last block's last lane.
#define USB_FILTER_DEFINE_VARIANT(SUFFIX, TARGET_ATTR)                                          \
  TARGET_ATTR void tap_filter_##SUFFIX(const double* USB_RESTRICT src, std::int64_t rows,       \
                                       std::int64_t stride, const double* USB_RESTRICT taps,    \
                                       std::int64_t k, std::int64_t step,                       \
                                       float* USB_RESTRICT out, std::int64_t out_h,             \
                                       std::int64_t out_w) {                                    \
    const std::int64_t origin = step < 0 ? k - 1 : 0;                                           \
    for (std::int64_t r = 0; r < out_h; ++r) {                                                  \
      const std::int64_t a_lo = step < 0 ? std::max<std::int64_t>(0, r - rows + 1) : 0;        \
      const std::int64_t a_end = std::min(k, step < 0 ? r + 1 : rows - r);                      \
      for (std::int64_t c = 0; c < out_w; c += kFilterBlock) {                                  \
        simd::v4df acc0{};                                                                      \
        simd::v4df acc1{};                                                                      \
        simd::v4df acc2{};                                                                      \
        const double* tap = taps + a_lo * k;                                                    \
        for (std::int64_t a = a_lo; a < a_end; ++a) {                                           \
          const double* src_row = src + (r + step * a) * stride + c + origin;                  \
          for (std::int64_t b = 0; b < k; ++b, ++tap) {                                         \
            const double* in = src_row + step * b;                                              \
            const simd::v4df t = USB_SIMD_BCAST_PD(*tap);                                       \
            acc0 = acc0 + USB_SIMD_LOAD_PD(in) * t;                                             \
            acc1 = acc1 + USB_SIMD_LOAD_PD(in + 4) * t;                                         \
            acc2 = acc2 + USB_SIMD_LOAD_PD(in + 8) * t;                                         \
          }                                                                                     \
        }                                                                                       \
        double lanes[kFilterBlock];                                                             \
        USB_SIMD_STORE_PD(lanes, acc0);                                                         \
        USB_SIMD_STORE_PD(lanes + 4, acc1);                                                     \
        USB_SIMD_STORE_PD(lanes + 8, acc2);                                                     \
        const std::int64_t width = std::min(kFilterBlock, out_w - c);                          \
        for (std::int64_t j = 0; j < width; ++j) {                                              \
          out[r * out_w + c + j] = static_cast<float>(lanes[j]);                                \
        }                                                                                       \
      }                                                                                         \
    }                                                                                           \
  }

USB_FILTER_DEFINE_VARIANT(portable, )
#if defined(__x86_64__) || defined(__i386__)
USB_FILTER_DEFINE_VARIANT(avx2, __attribute__((target("avx2"))))
#endif

#undef USB_FILTER_DEFINE_VARIANT

using TapFilter = void (*)(const double*, std::int64_t, std::int64_t, const double*,
                           std::int64_t, std::int64_t, float*, std::int64_t, std::int64_t);

/// The variant ew::active_variant() selects, so ew::force_variant pins it.
TapFilter active_tap_filter() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (ew::active_variant() == ew::Variant::kAvx2) return tap_filter_avx2;
#endif
  return tap_filter_portable;
}

/// Widens the (k, k) kernel into the calling thread's scratch.
const double* widen_taps(const Tensor& kernel) {
  double* taps = grow(FilterScratch::local().taps, static_cast<std::size_t>(kernel.numel()));
  std::copy(kernel.raw(), kernel.raw() + kernel.numel(), taps);
  return taps;
}

/// Row stride of a widened plane: the output width rounded up to whole
/// blocks, plus the k-1 columns the last block's taps reach past it.
std::int64_t filter_stride(std::int64_t out_w, std::int64_t k) {
  return (out_w + kFilterBlock - 1) / kFilterBlock * kFilterBlock + k - 1;
}

}  // namespace

void filter2d_valid_into(const Tensor& x, const Tensor& kernel, Tensor& y) {
  require(x.rank() == 4, "filter2d_valid: input must be NCHW");
  require(kernel.rank() == 2 && kernel.dim(0) == kernel.dim(1),
          "filter2d_valid: square rank-2 kernel required");
  const std::int64_t k = kernel.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = height - k + 1;
  const std::int64_t out_w = width - k + 1;
  require(out_h > 0 && out_w > 0, "filter2d_valid: kernel larger than input");

  y.ensure_shape(Shape{x.dim(0), x.dim(1), out_h, out_w});
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const std::int64_t stride = filter_stride(out_w, k);
  const TapFilter filter = active_tap_filter();
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    const double* taps = widen_taps(kernel);
    double* src = grow(FilterScratch::local().plane, static_cast<std::size_t>(height * stride));
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* x_p = x.raw() + plane * height * width;
      for (std::int64_t h = 0; h < height; ++h) {
        double* row = src + h * stride;
        std::copy(x_p + h * width, x_p + (h + 1) * width, row);
        std::fill(row + width, row + stride, 0.0);
      }
      filter(src, height, stride, taps, k, /*step=*/1, y.raw() + plane * out_h * out_w, out_h,
             out_w);
    }
  });
}

void filter2d_full_adjoint_into(const Tensor& g, const Tensor& kernel, Tensor& dx) {
  require(g.rank() == 4, "filter2d_full_adjoint: input must be NCHW");
  require(kernel.rank() == 2 && kernel.dim(0) == kernel.dim(1),
          "filter2d_full_adjoint: square rank-2 kernel required");
  const std::int64_t k = kernel.dim(0);
  const std::int64_t gh = g.dim(2);
  const std::int64_t gw = g.dim(3);
  const std::int64_t out_h = gh + k - 1;
  const std::int64_t out_w = gw + k - 1;

  dx.ensure_shape(Shape{g.dim(0), g.dim(1), out_h, out_w});
  const std::int64_t planes = g.dim(0) * g.dim(1);
  // Each row of g sits k-1 zero columns in, so every column tap of every
  // output reads inside the padded row.
  const std::int64_t pad = k - 1;
  const std::int64_t stride = filter_stride(out_w, k);
  const TapFilter filter = active_tap_filter();
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    const double* taps = widen_taps(kernel);
    double* src = grow(FilterScratch::local().plane, static_cast<std::size_t>(gh * stride));
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* g_p = g.raw() + plane * gh * gw;
      for (std::int64_t i = 0; i < gh; ++i) {
        double* row = src + i * stride;
        std::fill(row, row + pad, 0.0);
        std::copy(g_p + i * gw, g_p + (i + 1) * gw, row + pad);
        std::fill(row + pad + gw, row + stride, 0.0);
      }
      filter(src, gh, stride, taps, k, /*step=*/-1, dx.raw() + plane * out_h * out_w, out_h,
             out_w);
    }
  });
}

}  // namespace usb
