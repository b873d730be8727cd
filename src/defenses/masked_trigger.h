// Optimizable (trigger, mask) pair under the blending model
//   x' = x * (1 - mask) + pattern * mask
// and the one refinement loop that optimizes it for Neural Cleanse, TABOR,
// and USB's Alg. 2 (TriggerRefineTask below).
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

#include <optional>

#include "data/dataloader.h"
#include "defenses/scan_plan.h"
#include "nn/loss.h"
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

/// Fraction of cached probe samples that `trigger` sends to `target_class`
/// on the frozen `model`. The trigger-applied batch and the forward pass
/// live in `arena` (one Scope per batch), so a warmed arena evaluates with
/// zero Tensor heap allocations — the same contract the refinement step
/// holds (tests/test_arena.cpp).
[[nodiscard]] double fooling_rate(const Network& model, const ProbeBatchCache& cache,
                                  const MaskedTrigger& trigger, std::int64_t target_class,
                                  TensorArena& arena);

/// The per-class masked-trigger optimization every detector here runs, in
/// resumable form (see ClassRefineTask). USB's Alg. 2 is Neural Cleanse's
/// loop with a UAP-derived start and a -SSIM term; TABOR is Neural Cleanse
/// plus four regularizers. So the loop is written once, here, and a
/// detector supplies only what differs: its RNG salts, how its trigger
/// starts (the derived constructor emplaces trigger_), and its extra loss
/// terms (the hooks below). One step is, in this order:
///
///   next batch x (new epoch when empty) -> arena reset -> zero_grad ->
///   x' = blend(x) -> logits = f(x') -> CE(logits, t) -> dL/dx' ->
///   add_input_terms -> chain rule into the trigger -> add_trigger_terms ->
///   Adam step -> loss = after_step.
///
/// run_steps slices concatenate bit-identically to one uninterrupted loop:
/// the body never reads the step index, and the loader cursor, Adam moments,
/// the detector's schedules and the last loss all live in the task.
///
/// Every per-step tensor lives in the task's TensorArena, reset at each step
/// boundary; with the recycled loader batch and trigger scratch, a
/// steady-state step performs ZERO Tensor heap allocations (asserted by
/// tests/test_arena.cpp and the bench alloc-pressure entry). Hooks that need
/// scratch or extra passes (SSIM, TABOR's R3/R4) use the same arena.
class TriggerRefineTask : public ClassRefineTask {
 public:
  std::int64_t run_steps(std::int64_t steps) final;
  [[nodiscard]] double current_mask_l1() const final { return trigger_->mask_l1(); }
  /// The trigger's decomposition plus its fooling rate over the job's shared
  /// probe cache, evaluated on the task's arena.
  [[nodiscard]] TriggerEstimate finalize() final;

 protected:
  /// The loader shuffles with the stream hash_combine(job.rng_seed,
  /// loader_salt). The derived constructor must emplace trigger_.
  TriggerRefineTask(const Network& model, const Dataset& probe, const ClassScanJob& job,
                    std::int64_t batch_size, std::uint64_t loader_salt);

  /// The NC-style random start, from the stream hash_combine(job.rng_seed,
  /// init_salt).
  void start_random(const Dataset& probe, std::uint64_t init_salt, float lr);

  /// Adds the gradient of loss terms on the blended batch `blended` (x') to
  /// dL/dx', before the chain rule into the trigger. Default: none.
  virtual void add_input_terms(const Batch& batch, const Tensor& blended, Tensor& dblended);
  /// Adds the gradient of loss terms on the trigger itself (and any extra
  /// passes they need) after the chain rule, before the Adam step.
  virtual void add_trigger_terms(const Batch& batch) = 0;
  /// Runs after the Adam step, given the step's CE value and the logits of
  /// x'; returns the step's loss value.
  [[nodiscard]] virtual float after_step(float ce, const Tensor& logits) = 0;

  const Network& model_;
  const ClassScanJob job_;
  TensorArena arena_;  // per-task slots, reset at step boundaries
  std::optional<MaskedTrigger> trigger_;

 private:
  DataLoader loader_;
  Batch batch_;  // recycled loader batch
  TargetedCrossEntropy ce_;
  float last_loss_ = 0.0F;
  bool exhausted_ = false;
};

}  // namespace usb
