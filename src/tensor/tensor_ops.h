// Dense kernels: matmul, im2col convolution (with groups), pooling, softmax,
// and the 2-D filtering primitives used by SSIM.
//
// Layout conventions:
//  - Activations are NCHW; matrices are row-major (M, K).
//  - Convolution weights are (OC, IC/groups, KH, KW); bias is (OC).
//  - All backward kernels compute exact gradients of their forward
//    counterparts (validated against central finite differences in tests).
//
// The SSIM filters are AVX2/portable kernels dispatched on
// ew::active_variant() (elementwise.h), so ew::force_variant pins them; both
// variants keep the bits of the scalar loops for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace usb {

// ---------------------------------------------------------------- matmul --
//
// Both entry points are thin views over the blocked GEMM core in
// tensor/gemm.h (the transpose is folded into panel packing); the A x B^T
// orientation (Linear forward, conv dW) calls gemm() directly. Results are
// bit-identical for any USB_THREADS; see gemm.h for the determinism
// contract.
//
// Every op here follows the repository's `_into` convention: the kernel
// writes into a caller-provided Tensor (re-shaped in place via
// Tensor::ensure_shape, so a recycled output buffer costs zero heap
// allocations), and there is no value-returning twin, so tests and benches
// run the form a scan runs. Outputs are fully overwritten unless a comment
// says the op accumulates (those zero the output first), so arena slots
// with stale contents are safe.

/// C = A (M,K) x B (K,N).
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);

/// C = A^T x B where A is (K,M), B is (K,N).
void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out);

// ----------------------------------------------------------- convolution --

/// Static geometry of a 2-D convolution.
struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 1;   // square kernels only (paper architectures)
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;   // groups == in_channels gives depthwise conv

  [[nodiscard]] std::int64_t out_size(std::int64_t in_size) const noexcept {
    return (in_size + 2 * padding - kernel) / stride + 1;
  }
  /// Weight tensor shape for this spec.
  [[nodiscard]] Shape weight_shape() const {
    return Shape{out_channels, in_channels / groups, kernel, kernel};
  }
};

/// y (N,OC,OH,OW) = conv(x (N,IC,H,W), weight, bias). `bias` may be empty
/// (numel 0) to skip the bias add.
void conv2d_forward_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                         const Conv2dSpec& spec, Tensor& y);

/// Exact gradients of conv2d_forward_into: each requested gradient is
/// written into its out-parameter (ignored when null or its need flag is
/// off), and nothing is computed or allocated for a skipped one. Skipping
/// dx (need_dx=false) saves the col2im pass for the first layer of a
/// network; skipping dweight (need_dweight=false) halves the cost when only
/// input gradients matter (frozen-model detection).
void conv2d_backward_into(const Tensor& x, const Tensor& weight, const Tensor& dy,
                          const Conv2dSpec& spec, bool need_dx, bool need_dweight, Tensor* dx,
                          Tensor* dweight, Tensor* dbias);

/// Unfolds x (C,H,W view of one sample) into columns (C*K*K, OH*OW): the
/// input side of conv backward's dW GEMM.
void im2col(const float* x, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* col);

/// Transpose of im2col: accumulates columns back into the (C,H,W) image
/// (conv backward's dx).
void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* x);

/// Thread-local convolution scratch: the im2col column block, its gradient
/// counterpart, and the batched-GEMM staging buffer. Buffers grow on demand
/// and are NEVER shrunk or freed before thread exit, so the steady-state
/// conv2d_forward_into/conv2d_backward_into hot path (N-sample probe
/// batches flowing through the same geometry over and over) performs zero
/// heap allocations.
class Im2colWorkspace {
 public:
  /// The calling thread's workspace (one per pool worker / caller thread).
  [[nodiscard]] static Im2colWorkspace& local();

  [[nodiscard]] float* col(std::size_t count) { return col_.ensure(count); }
  [[nodiscard]] float* dcol(std::size_t count) { return dcol_.ensure(count); }
  [[nodiscard]] float* gemm_out(std::size_t count) { return gemm_out_.ensure(count); }

  [[nodiscard]] std::size_t col_capacity() const noexcept { return col_.capacity(); }
  [[nodiscard]] std::size_t dcol_capacity() const noexcept { return dcol_.capacity(); }
  [[nodiscard]] std::size_t gemm_out_capacity() const noexcept { return gemm_out_.capacity(); }

 private:
  AlignedBuffer col_;
  AlignedBuffer dcol_;
  AlignedBuffer gemm_out_;
};

// --------------------------------------------------------------- pooling --

struct Pool2dSpec {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;

  [[nodiscard]] std::int64_t out_size(std::int64_t in_size) const noexcept {
    return (in_size - kernel) / stride + 1;
  }
};

/// `argmax` (flat input index per output element) is resized in place
/// (capacity reused across calls).
void maxpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y,
                            std::vector<std::int64_t>& argmax);
void maxpool2d_backward_into(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                             const Shape& x_shape, Tensor& dx);

void avgpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y);
void avgpool2d_backward_into(const Tensor& dy, const Shape& x_shape, const Pool2dSpec& spec,
                             Tensor& dx);

/// (N,C,H,W) -> (N,C,1,1) mean over spatial dims.
void global_avgpool_forward_into(const Tensor& x, Tensor& y);
void global_avgpool_backward_into(const Tensor& dy, const Shape& x_shape, Tensor& dx);

// --------------------------------------------------------------- softmax --

/// Row-wise softmax of a (M,N) matrix, numerically stabilized.
void softmax_rows_into(const Tensor& logits, Tensor& probs);

/// Argmax per row of a (M,N) matrix.
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& logits);

// ----------------------------------------------------------- 2-D filters --

/// Normalized Gaussian kernel as a (size,size) tensor. The value form is
/// the one exception to the `_into` convention; the scan benchmark's SSIM
/// replay (perfbench/) calls it.
[[nodiscard]] Tensor gaussian_kernel(std::int64_t size, double sigma);
void gaussian_kernel_into(std::int64_t size, double sigma, Tensor& kernel);

// Both filters run one column-blocked tap kernel. Each input plane is
// widened once to double in thread-local scratch (grown, never shrunk), and
// 12 output columns at a time run every tap in double lanes, one output per
// lane. Each output still adds its K*K products in one double chain, in the
// (a, b) tap order of the scalar loop it replaced, so the result is
// bit-identical to that loop (tests/test_tensor_ops.cpp keeps it as the
// reference). Both throw std::invalid_argument unless the kernel is a
// square rank-2 tensor.

/// Per-channel valid cross-correlation of x (N,C,H,W) with kernel (K,K):
/// output (N,C,H-K+1,W-K+1). This is the "local statistics" operator of
/// SSIM.
void filter2d_valid_into(const Tensor& x, const Tensor& kernel, Tensor& y);

/// Per-channel full cross-correlation with the flipped kernel: the exact
/// adjoint (transpose) of filter2d_valid_into, mapping gradients on the
/// valid output back to the input grid. Output (N,C,h+K-1,w+K-1). The
/// kernel must be finite: the zero columns beside g meet every column tap.
void filter2d_full_adjoint_into(const Tensor& g, const Tensor& kernel, Tensor& dx);

}  // namespace usb
