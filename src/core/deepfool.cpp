#include "core/deepfool.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/tensor_ops.h"

namespace usb {

Tensor targeted_deepfool(const Network& model, const Tensor& x, std::int64_t target,
                         const DeepFoolConfig& config, const DeepFoolWarmStart* warm,
                         TensorArena* arena) {
  require_frozen(model, "targeted_deepfool");
  const std::int64_t classes = model.num_classes();
  if (target < 0 || target >= classes) {
    throw std::invalid_argument("targeted_deepfool: target class out of range");
  }
  const std::int64_t batch = x.dim(0);
  const std::int64_t numel = x.numel() / batch;

  // Temporaries (the adversarial batch, every forward/backward, the
  // selectors) live in the caller's arena when one is provided, else in a
  // private one; the Scope rewinds either on exit.
  TensorArena private_arena;
  TensorArena& slots = arena != nullptr ? *arena : private_arena;
  const TensorArena::Scope call_scope(slots);

  Tensor& x_adv = slots.alloc(x.shape());
  std::copy(x.raw(), x.raw() + x.numel(), x_adv.raw());
  Tensor perturbation(x.shape());

  std::vector<bool> done(static_cast<std::size_t>(batch), false);
  for (std::int64_t iter = 0; iter < config.max_iterations; ++iter) {
    const TensorArena::Scope iter_scope(slots);
    // Iteration 0 of a class-independent batch restarts from the scan's
    // cached clean forward instead of re-entering at the pixels.
    const bool use_warm = warm != nullptr && iter == 0;
    const Tensor* logits_local = nullptr;
    if (!use_warm) logits_local = &model.forward_into(x_adv, slots);
    const Tensor& logits = use_warm ? *warm->logits : *logits_local;
    std::vector<std::int64_t> preds_local;
    if (!use_warm) preds_local = argmax_rows(logits);
    const std::vector<std::int64_t>& preds = use_warm ? *warm->preds : preds_local;

    // Selectors: one-hot target and one-hot current prediction per row, with
    // finished rows zeroed so they contribute nothing to either backward.
    Tensor& sel_target = slots.zeros(Shape{batch, classes});
    Tensor& sel_current = slots.zeros(Shape{batch, classes});
    bool any_active = false;
    for (std::int64_t n = 0; n < batch; ++n) {
      if (done[static_cast<std::size_t>(n)]) continue;
      if (preds[static_cast<std::size_t>(n)] == target) {
        done[static_cast<std::size_t>(n)] = true;
        continue;
      }
      any_active = true;
      sel_target[n * classes + target] = 1.0F;
      sel_current[n * classes + preds[static_cast<std::size_t>(n)]] = 1.0F;
    }
    if (!any_active) break;

    // Two backwards over the one cached forward (backward is repeatable).
    // The warm start supplies both precomputed: its all-rows gradients agree
    // bitwise with these selector backwards on every row the update reads.
    const Tensor* grad_target_local = nullptr;
    const Tensor* grad_current_local = nullptr;
    if (!use_warm) {
      grad_target_local = &model.backward_into(sel_target, slots);
      grad_current_local = &model.backward_into(sel_current, slots);
    }
    const Tensor& grad_target = use_warm ? *warm->grad_target : *grad_target_local;
    const Tensor& grad_current = use_warm ? *warm->grad_current : *grad_current_local;

    for (std::int64_t n = 0; n < batch; ++n) {
      if (done[static_cast<std::size_t>(n)]) continue;
      const std::int64_t pred = preds[static_cast<std::size_t>(n)];
      const float* gt = grad_target.raw() + n * numel;
      const float* gc = grad_current.raw() + n * numel;
      double w_sq = 0.0;
      for (std::int64_t i = 0; i < numel; ++i) {
        const double w = static_cast<double>(gt[i]) - gc[i];
        w_sq += w * w;
      }
      const float logit_gap = logits[n * classes + pred] - logits[n * classes + target];
      const double scale = (static_cast<double>(logit_gap) + 1e-4) / (w_sq + 1e-12);
      float* adv = x_adv.raw() + n * numel;
      float* pert = perturbation.raw() + n * numel;
      const float step = static_cast<float>(scale) * (1.0F + config.overshoot);
      for (std::int64_t i = 0; i < numel; ++i) {
        const float delta = step * (gt[i] - gc[i]);
        pert[i] += delta;
        adv[i] = std::clamp(adv[i] + delta, config.clip_lo, config.clip_hi);
      }
    }
  }
  return perturbation;
}

}  // namespace usb
