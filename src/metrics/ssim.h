// Structural Similarity (SSIM) with an analytic gradient.
//
// Alg. 2 of the paper optimizes  L = CE(f(x'), t) - SSIM(x, x') + |mask|_1 ,
// which requires dSSIM/dx'. There is no autograd tape in this library, so we
// differentiate the canonical Gaussian-window SSIM (Wang et al., 2004) in
// closed form. All local statistics are valid-window Gaussian filters; the
// gradient propagates through the three y-dependent maps
//   mu_y = G*y,  sigma_y^2 = G*y^2 - mu_y^2,  sigma_xy = G*(xy) - mu_x mu_y
// using the adjoint filter (full correlation). Verified against central
// finite differences in tests/test_ssim.cpp.
//
// Cost: each ssim_with_gradient call runs 5 valid filters and 3 adjoint
// scatters of the 11x11 window. The filters run output columns in double
// lanes (tensor_ops.h) and keep the bits of the tap-serial loops; the
// per-map arithmetic and the SSIM total here stay scalar, the total in
// ascending order.
#pragma once

#include <cstdint>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace usb {

struct SsimConfig {
  std::int64_t window = 11;
  double sigma = 1.5;
  // Stabilizers for dynamic range L = 1 (images in [0,1]).
  float c1 = 0.01F * 0.01F;
  float c2 = 0.03F * 0.03F;
};

/// Mean SSIM over all windows/channels/samples of x and y (both NCHW,
/// matching shapes, spatial size >= window).
[[nodiscard]] float ssim(const Tensor& x, const Tensor& y, const SsimConfig& config = {});

struct SsimGradRef {
  float value = 0.0F;
  // d mean-SSIM / dy, same shape as y; arena-owned, valid until the arena resets.
  const Tensor* grad_y = nullptr;
};

/// SSIM value plus its exact gradient with respect to y (x held constant).
/// Every intermediate map and the gradient itself live in `arena`, so the
/// USB refinement step's per-step SSIM term allocates nothing in steady
/// state.
[[nodiscard]] SsimGradRef ssim_with_gradient(const Tensor& x, const Tensor& y, TensorArena& arena,
                                             const SsimConfig& config = {});

}  // namespace usb
