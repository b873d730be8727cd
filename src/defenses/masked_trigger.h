// Optimizable (trigger, mask) pair under the blending model
//   x' = x * (1 - mask) + pattern * mask
// shared by Neural Cleanse, TABOR, and USB's Alg. 2 refinement.
//
// Both variables live in logit space (sigmoid reparameterization keeps them
// in [0,1] without projection); the mask is spatial (H,W) and broadcasts
// over channels, matching NC's formulation. Adam(beta=0.5,0.9) drives the
// updates, as specified in the paper's hyperparameters.
//
// Hot-path design: the sigmoid'd mask/pattern values are computed once per
// Adam step into recycled members (mask_values()/pattern_values()) and every
// gradient accumulator reuses member scratch, so a steady-state refinement
// step performs zero heap allocations; the value-returning mask()/pattern()
// remain as copying adapters. The per-element loops run on the
// dispatched elementwise kernels (tensor/elementwise.h) and are
// bit-identical to the historical scalar code.
#pragma once

#include "nn/optimizer.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace usb {

class MaskedTrigger {
 public:
  /// Random initialization (the NC/TABOR starting point).
  MaskedTrigger(std::int64_t channels, std::int64_t size, Rng& rng, float lr);

  /// Initialization from a given mask/pattern in [0,1] (USB starts from the
  /// targeted UAP decomposition instead of noise).
  MaskedTrigger(Tensor initial_mask, Tensor initial_pattern, float lr);

  [[nodiscard]] std::int64_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::int64_t size() const noexcept { return size_; }

  /// Current mask (H,W) in [0,1] (copy).
  [[nodiscard]] Tensor mask() const;
  /// Current pattern (C,H,W) in [0,1] (copy).
  [[nodiscard]] Tensor pattern() const;

  /// Current mask/pattern values in recycled internal storage; valid until
  /// the next step(). The allocation-free counterparts of mask()/pattern().
  [[nodiscard]] const Tensor& mask_values() const;
  [[nodiscard]] const Tensor& pattern_values() const;

  [[nodiscard]] double mask_l1() const;

  /// Blends the trigger into a batch, x' = x(1-m) + p*m, in an arena slot
  /// that lives until the arena resets.
  [[nodiscard]] const Tensor& apply_into(const Tensor& x, TensorArena& arena) const;

  /// Clears accumulated gradients (call once per optimization step).
  void zero_grad();

  /// Chain rule from dL/dx' (same shape as the batch x) into the logit
  /// gradients. `x` must be the batch passed to apply_into().
  void accumulate_from_output_grad(const Tensor& dxprime, const Tensor& x);

  /// d(weight * |mask|_1)/dtheta_m.
  void add_mask_l1_grad(float weight);

  /// d(weight * elastic(mask))/dtheta_m with elastic = |m|_1 + |m|_2^2.
  void add_mask_elastic_grad(float weight);

  /// d(weight * TV(mask))/dtheta_m, anisotropic total variation.
  void add_mask_tv_grad(float weight);

  /// Adds an arbitrary gradient on the mask values (chained through the
  /// sigmoid). Used by TABOR's pattern-dependent regularizers.
  void add_mask_value_grad(const Tensor& dmask);
  /// Same for the pattern values.
  void add_pattern_value_grad(const Tensor& dpattern);

  /// One Adam step on both logit tensors.
  void step();

 private:
  void refresh_values() const;

  std::int64_t channels_;
  std::int64_t size_;
  Tensor theta_mask_;     // (H,W) logits
  Tensor theta_pattern_;  // (C,H,W) logits
  Tensor grad_mask_;
  Tensor grad_pattern_;
  AdamState adam_mask_;
  AdamState adam_pattern_;

  // sigmoid(theta) caches, recomputed lazily after each step().
  mutable Tensor mask_values_;
  mutable Tensor pattern_values_;
  mutable bool values_fresh_ = false;

  // Gradient-accumulation scratch, recycled across steps.
  Tensor dmask_scratch_;
  Tensor dpattern_scratch_;
  Tensor tv_scratch_;
};

}  // namespace usb
