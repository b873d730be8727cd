// Targeted DeepFool (Moosavi-Dezfooli et al., CVPR 2016), the inner search
// of Alg. 1: the minimal perturbation moving a sample across the decision
// boundary into a chosen target class.
//
// For the current prediction c and target t, one step moves along
//   w = grad_x logit_t - grad_x logit_c
// by (logit_c - logit_t)/||w||^2, i.e. the exact boundary projection for a
// locally-linearized classifier. Both gradients come from repeated backward
// passes over one cached forward (backward is a pure function of the cache).
#pragma once

#include <cstdint>

#include "nn/models.h"
#include "tensor/arena.h"

namespace usb {

struct DeepFoolConfig {
  std::int64_t max_iterations = 6;
  float overshoot = 0.02F;  // pushes past the boundary, as in the original
  float clip_lo = 0.0F;     // valid image range
  float clip_hi = 1.0F;
};

/// Precomputed products of the first iteration's forward/backward, used when
/// the input batch is CLASS-INDEPENDENT (Alg. 1's first craft batch, where
/// v = 0 for every candidate class): the forward, the argmax predictions and
/// the current-prediction backward are then identical across all K classes
/// of a scan, so one shared instance replaces K recomputations.
///
/// `grad_target` / `grad_current` are the input gradients of
/// sum_n logit_{target} and sum_n logit_{pred_n} over ALL rows. The
/// per-class selectors zero rows already classified as the target, but
/// eval-mode forwards keep batch rows independent (no cross-row coupling in
/// any layer), and the update rule skips those rows entirely — so sharing
/// the all-rows backwards is bit-identical to the per-class ones.
struct DeepFoolWarmStart {
  const Tensor* logits = nullptr;
  const std::vector<std::int64_t>* preds = nullptr;
  const Tensor* grad_target = nullptr;   // d(sum_n logit_target)/dx
  const Tensor* grad_current = nullptr;  // d(sum_n logit_{pred_n})/dx
};

/// Batched targeted DeepFool: for every row not yet classified as `target`,
/// accumulates boundary-projection steps until the row flips or the
/// iteration budget runs out, and returns the summed steps (same shape as
/// `x`). Rows already at the target get a zero perturbation. When `warm` is
/// given, iteration 0 consumes its cached forward/backward products instead
/// of recomputing them — bit-identical, because eval-mode forwards are pure
/// row-wise functions of (weights, x).
/// `arena` (optional) hosts every per-iteration temporary — forwards,
/// selectors, backwards — under a Scope, so repeated calls recycle the same
/// slots; without one the call uses a private arena (still allocation-free
/// across its own iterations). `model` must be frozen and `target` one of
/// its classes (std::invalid_argument otherwise).
[[nodiscard]] Tensor targeted_deepfool(const Network& model, const Tensor& x,
                                       std::int64_t target, const DeepFoolConfig& config = {},
                                       const DeepFoolWarmStart* warm = nullptr,
                                       TensorArena* arena = nullptr);

}  // namespace usb
