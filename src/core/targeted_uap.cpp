#include "core/targeted_uap.h"
#include <algorithm>

#include <cmath>

#include "data/dataloader.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

/// Adds v (1,C,H,W) to every row of a batch, clipped to [0,1].
void add_uap_into(const Tensor& images, const Tensor& v, Tensor& out) {
  out.ensure_shape(images.shape());
  const std::int64_t batch = images.dim(0);
  const std::int64_t numel = v.numel();
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* src = images.raw() + n * numel;
    float* row = out.raw() + n * numel;
    for (std::int64_t i = 0; i < numel; ++i) {
      row[i] = std::clamp(src[i] + v[i], 0.0F, 1.0F);
    }
  }
}

void project_l2(Tensor& v, float radius) {
  const float norm = v.l2_norm();
  if (norm > radius && norm > 0.0F) v *= radius / norm;
}

Dataset make_craft_set(const Dataset& probe, const TargetedUapConfig& config) {
  return config.craft_size > 0 ? probe.take(config.craft_size) : probe.take(probe.size());
}

}  // namespace

double uap_fooling_rate(const Network& model, const Dataset& probe, const Tensor& v,
                        std::int64_t target) {
  return uap_fooling_rate(model, ProbeBatchCache(probe), v, target);
}

double uap_fooling_rate(const Network& model, const ProbeBatchCache& batches, const Tensor& v,
                        std::int64_t target, TensorArena* arena) {
  require_frozen(model, "uap_fooling_rate");
  TensorArena private_arena;
  TensorArena& slots = arena != nullptr ? *arena : private_arena;
  std::int64_t hits = 0;
  for (const Batch& batch : batches.batches()) {
    const TensorArena::Scope batch_scope(slots);
    Tensor& shifted = slots.alloc(batch.images.shape());
    add_uap_into(batch.images, v, shifted);
    const Tensor& logits = model.forward_into(shifted, slots);
    for (const std::int64_t pred : argmax_rows(logits)) {
      if (pred == target) ++hits;
    }
  }
  return batches.total_samples() == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(batches.total_samples());
}

UapScanPrefix build_uap_scan_prefix(const Network& model, const Dataset& probe,
                                    const TargetedUapConfig& config, std::int64_t num_classes) {
  require_frozen(model, "build_uap_scan_prefix");
  UapScanPrefix prefix;
  prefix.craft = ProbeBatchCache(make_craft_set(probe, config), config.batch_size);
  if (prefix.craft.batches().empty() || num_classes <= 0 || config.max_passes <= 0 ||
      config.deepfool.max_iterations <= 0) {
    return prefix;  // nothing to warm-start; the craft cache alone is shared
  }

  const DatasetSpec& spec = probe.spec();
  const Batch& first = prefix.craft.batches().front();

  // The exact input of every class's first DeepFool call: x + v with v = 0
  // (the clamp matters only if probe images stray outside [0,1]).
  // Pixel-space perturbations depend on the input itself, so the whole
  // clean forward is the shareable prefix.
  TensorArena arena;
  const Tensor zero(Shape{1, spec.channels, spec.image_size, spec.image_size});
  Tensor& clean = arena.alloc(first.images.shape());
  add_uap_into(first.images, zero, clean);
  prefix.clean_logits = model.forward_into(clean, arena);
  prefix.clean_preds = argmax_rows(prefix.clean_logits);

  // The class-independent backward (one-hot current predictions) and the K
  // class backwards, all over the one cached forward (backward is
  // repeatable). All-rows selectors: rows already at a target are skipped by
  // DeepFool's update rule, so their gradient values are never read. Each
  // backward's slots are recycled once its gradient is copied out.
  const std::int64_t rows = first.images.dim(0);
  const std::int64_t classes = model.num_classes();
  Tensor selector(Shape{rows, classes});
  for (std::int64_t n = 0; n < rows; ++n) {
    selector[n * classes + prefix.clean_preds[static_cast<std::size_t>(n)]] = 1.0F;
  }
  const auto input_gradient = [&] {
    const TensorArena::Scope scope(arena);
    return Tensor(model.backward_into(selector, arena));
  };
  prefix.grad_current = input_gradient();

  prefix.grad_target.resize(static_cast<std::size_t>(num_classes));
  for (std::int64_t t = 0; t < num_classes; ++t) {
    selector.fill(0.0F);
    for (std::int64_t n = 0; n < rows; ++n) selector[n * classes + t] = 1.0F;
    prefix.grad_target[static_cast<std::size_t>(t)] = input_gradient();
  }
  return prefix;
}

TargetedUapResult targeted_uap(const Network& model, const Dataset& probe, std::int64_t target,
                               const TargetedUapConfig& config, const UapScanPrefix* prefix,
                               TensorArena* arena) {
  require_frozen(model, "targeted_uap");
  TensorArena private_arena;
  TensorArena& slots = arena != nullptr ? *arena : private_arena;
  const TensorArena::Scope call_scope(slots);
  const DatasetSpec& spec = probe.spec();
  TargetedUapResult result;
  result.perturbation =
      Tensor(Shape{1, spec.channels, spec.image_size, spec.image_size});
  Tensor& v = result.perturbation;
  const float radius =
      config.l2_radius_per_pixel > 0.0F
          ? config.l2_radius_per_pixel * std::sqrt(static_cast<float>(spec.image_numel()))
          : 0.0F;

  // The craft batches are identical for every candidate class and every
  // pass (sequential, unshuffled); a scan materializes them once in the
  // shared prefix, a standalone call once here. Same batching as the
  // historical DataLoader loop, so the pass arithmetic is bit-identical.
  ProbeBatchCache local_craft;
  if (prefix == nullptr) {
    local_craft = ProbeBatchCache(make_craft_set(probe, config), config.batch_size);
  }
  const ProbeBatchCache& craft = prefix != nullptr ? prefix->craft : local_craft;

  for (std::int64_t pass = 0; pass < config.max_passes; ++pass) {
    result.passes = pass + 1;
    for (std::size_t b = 0; b < craft.batches().size(); ++b) {
      const Batch& batch = craft.batches()[b];
      const TensorArena::Scope batch_scope(slots);
      Tensor& shifted = slots.alloc(batch.images.shape());
      add_uap_into(batch.images, v, shifted);

      // (pass 0, batch 0) is the only point where v is still exactly zero —
      // the class-independent prefix of Alg. 1. Restart DeepFool from the
      // scan's cached clean forward instead of the pixels.
      DeepFoolWarmStart warm;
      const DeepFoolWarmStart* warm_ptr = nullptr;
      if (pass == 0 && b == 0 && prefix != nullptr && prefix->has_warm_start() &&
          target >= 0 && static_cast<std::size_t>(target) < prefix->grad_target.size()) {
        warm.logits = &prefix->clean_logits;
        warm.preds = &prefix->clean_preds;
        warm.grad_target = &prefix->grad_target[static_cast<std::size_t>(target)];
        warm.grad_current = &prefix->grad_current;
        warm_ptr = &warm;
      }

      // Batched Alg. 1 inner loop: the minimal per-sample perturbations that
      // send x_i + v to the target, averaged over the rows that still miss
      // it, become the aggregate update to v.
      const Tensor step = targeted_deepfool(model, shifted, target, config.deepfool, warm_ptr,
                                            &slots);
      const std::int64_t batch_rows = shifted.dim(0);
      const std::int64_t numel = v.numel();
      std::int64_t active_rows = 0;
      Tensor& update = slots.zeros(v.shape());
      for (std::int64_t n = 0; n < batch_rows; ++n) {
        const float* pert = step.raw() + n * numel;
        float row_norm = 0.0F;
        for (std::int64_t i = 0; i < numel; ++i) row_norm += pert[i] * pert[i];
        if (row_norm <= 0.0F) continue;  // already at target, untouched
        ++active_rows;
        for (std::int64_t i = 0; i < numel; ++i) update[i] += pert[i];
      }
      if (active_rows == 0) continue;
      update *= 1.0F / static_cast<float>(active_rows);
      v += update;
      if (radius > 0.0F) project_l2(v, radius);
    }
    result.fooling_rate = uap_fooling_rate(model, craft, v, target, &slots);
    if (result.fooling_rate >= config.desired_rate) break;
  }
  return result;
}

}  // namespace usb
