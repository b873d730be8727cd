#include "defenses/masked_trigger.h"
#include <algorithm>

#include <cmath>
#include <stdexcept>

#include "tensor/elementwise.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

float logit(float p) noexcept {
  const float clamped = std::clamp(p, 1e-4F, 1.0F - 1e-4F);
  return std::log(clamped / (1.0F - clamped));
}

AdamConfig detection_adam(float lr) {
  AdamConfig config;
  config.lr = lr;
  config.beta1 = 0.5F;  // paper Section 4.1: Adam with beta = (0.5, 0.9)
  config.beta2 = 0.9F;
  return config;
}

}  // namespace

MaskedTrigger::MaskedTrigger(std::int64_t channels, std::int64_t size, Rng& rng, float lr)
    : channels_(channels),
      size_(size),
      theta_mask_(Shape{size, size}),
      theta_pattern_(Shape{channels, size, size}),
      grad_mask_(Shape{size, size}),
      grad_pattern_(Shape{channels, size, size}),
      adam_mask_(theta_mask_.shape(), detection_adam(lr)),
      adam_pattern_(theta_pattern_.shape(), detection_adam(lr)) {
  // Random start: mask around ~0.1 (mostly transparent), pattern uniform
  // noise — the NC-style random point of the paper's Fig. 1.
  for (std::int64_t i = 0; i < theta_mask_.numel(); ++i) {
    theta_mask_[i] = static_cast<float>(rng.normal(-2.0, 0.5));
  }
  for (std::int64_t i = 0; i < theta_pattern_.numel(); ++i) {
    theta_pattern_[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
}

MaskedTrigger::MaskedTrigger(Tensor initial_mask, Tensor initial_pattern, float lr)
    : channels_(initial_pattern.dim(0)),
      size_(initial_pattern.dim(1)),
      theta_mask_(initial_mask.shape()),
      theta_pattern_(initial_pattern.shape()),
      grad_mask_(initial_mask.shape()),
      grad_pattern_(initial_pattern.shape()),
      adam_mask_(theta_mask_.shape(), detection_adam(lr)),
      adam_pattern_(theta_pattern_.shape(), detection_adam(lr)) {
  if (initial_mask.rank() != 2 || initial_pattern.rank() != 3 ||
      initial_mask.dim(0) != initial_pattern.dim(1) ||
      initial_mask.dim(1) != initial_pattern.dim(2)) {
    throw std::invalid_argument("MaskedTrigger: mask (H,W) / pattern (C,H,W) mismatch");
  }
  for (std::int64_t i = 0; i < theta_mask_.numel(); ++i) theta_mask_[i] = logit(initial_mask[i]);
  for (std::int64_t i = 0; i < theta_pattern_.numel(); ++i) {
    theta_pattern_[i] = logit(initial_pattern[i]);
  }
}

void MaskedTrigger::refresh_values() const {
  if (values_fresh_) return;
  mask_values_.ensure_shape(theta_mask_.shape());
  pattern_values_.ensure_shape(theta_pattern_.shape());
  ew::sigmoid_fwd(theta_mask_.raw(), mask_values_.raw(), theta_mask_.numel());
  ew::sigmoid_fwd(theta_pattern_.raw(), pattern_values_.raw(), theta_pattern_.numel());
  values_fresh_ = true;
}

const Tensor& MaskedTrigger::mask_values() const {
  refresh_values();
  return mask_values_;
}

const Tensor& MaskedTrigger::pattern_values() const {
  refresh_values();
  return pattern_values_;
}

Tensor MaskedTrigger::mask() const { return mask_values(); }

Tensor MaskedTrigger::pattern() const { return pattern_values(); }

double MaskedTrigger::mask_l1() const {
  const Tensor& m = mask_values();
  double total = 0.0;
  for (std::int64_t i = 0; i < m.numel(); ++i) total += m[i];
  return total;
}

const Tensor& MaskedTrigger::apply_into(const Tensor& x, TensorArena& arena) const {
  refresh_values();
  const std::int64_t batch = x.dim(0);
  const std::int64_t spatial = size_ * size_;
  Tensor& out = arena.alloc(x.shape());
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const std::int64_t offset = (n * channels_ + c) * spatial;
      ew::blend(x.raw() + offset, mask_values_.raw(), pattern_values_.raw() + c * spatial,
                out.raw() + offset, spatial);
    }
  }
  return out;
}

void MaskedTrigger::zero_grad() {
  grad_mask_.fill(0.0F);
  grad_pattern_.fill(0.0F);
}

void MaskedTrigger::accumulate_from_output_grad(const Tensor& dxprime, const Tensor& x) {
  refresh_values();
  const std::int64_t batch = x.dim(0);
  const std::int64_t spatial = size_ * size_;

  // dL/dm[s] = sum_{n,c} dx'[n,c,s] * (p[c,s] - x[n,c,s]);  dL/dp = dx' * m.
  dmask_scratch_.ensure_shape(mask_values_.shape());
  dmask_scratch_.fill(0.0F);
  dpattern_scratch_.ensure_shape(pattern_values_.shape());
  dpattern_scratch_.fill(0.0F);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const std::int64_t offset = (n * channels_ + c) * spatial;
      ew::mask_grad_accum(dmask_scratch_.raw(), dxprime.raw() + offset,
                          pattern_values_.raw() + c * spatial, x.raw() + offset, spatial);
      ew::muladd_accum(dpattern_scratch_.raw() + c * spatial, dxprime.raw() + offset,
                       mask_values_.raw(), spatial);
    }
  }
  add_mask_value_grad(dmask_scratch_);
  add_pattern_value_grad(dpattern_scratch_);
}

void MaskedTrigger::add_mask_l1_grad(float weight) {
  // mask >= 0, so d|m|_1/dm = 1 everywhere.
  ew::l1_sigmoid_grad_accum(grad_mask_.raw(), mask_values().raw(), weight,
                            grad_mask_.numel());
}

void MaskedTrigger::add_mask_elastic_grad(float weight) {
  const Tensor& values = mask_values();
  for (std::int64_t i = 0; i < theta_mask_.numel(); ++i) {
    const float m = values[i];
    grad_mask_[i] += weight * (1.0F + 2.0F * m) * m * (1.0F - m);
  }
}

void MaskedTrigger::add_mask_tv_grad(float weight) {
  const Tensor& m = mask_values();
  tv_scratch_.ensure_shape(m.shape());
  tv_scratch_.fill(0.0F);
  Tensor& dtv = tv_scratch_;
  for (std::int64_t y = 0; y < size_; ++y) {
    for (std::int64_t x = 0; x < size_; ++x) {
      if (y + 1 < size_) {
        const float diff = m[(y + 1) * size_ + x] - m[y * size_ + x];
        const float sign = diff > 0.0F ? 1.0F : (diff < 0.0F ? -1.0F : 0.0F);
        dtv[(y + 1) * size_ + x] += sign;
        dtv[y * size_ + x] -= sign;
      }
      if (x + 1 < size_) {
        const float diff = m[y * size_ + x + 1] - m[y * size_ + x];
        const float sign = diff > 0.0F ? 1.0F : (diff < 0.0F ? -1.0F : 0.0F);
        dtv[y * size_ + x + 1] += sign;
        dtv[y * size_ + x] -= sign;
      }
    }
  }
  dtv *= weight;
  add_mask_value_grad(dtv);
}

void MaskedTrigger::add_mask_value_grad(const Tensor& dmask) {
  ew::dsigmoid_chain_accum(grad_mask_.raw(), dmask.raw(), mask_values().raw(),
                           grad_mask_.numel());
}

void MaskedTrigger::add_pattern_value_grad(const Tensor& dpattern) {
  ew::dsigmoid_chain_accum(grad_pattern_.raw(), dpattern.raw(), pattern_values().raw(),
                           grad_pattern_.numel());
}

void MaskedTrigger::step() {
  adam_mask_.step(theta_mask_, grad_mask_);
  adam_pattern_.step(theta_pattern_, grad_pattern_);
  values_fresh_ = false;
}

double fooling_rate(const Network& model, const ProbeBatchCache& cache,
                    const MaskedTrigger& trigger, std::int64_t target_class, TensorArena& arena) {
  require_frozen(model, "fooling_rate");
  // Eval batches are usually a different size than refine batches, so the
  // first evaluation on an arena warmed by refinement still grows slots;
  // every later one reuses them.
  std::int64_t hits = 0;
  for (const Batch& batch : cache.batches()) {
    const TensorArena::Scope scope(arena);
    const Tensor& logits = model.forward_into(trigger.apply_into(batch.images, arena), arena);
    for (const std::int64_t pred : argmax_rows(logits)) {
      if (pred == target_class) ++hits;
    }
  }
  return cache.total_samples() == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(cache.total_samples());
}

TriggerRefineTask::TriggerRefineTask(const Network& model, const Dataset& probe,
                                     const ClassScanJob& job, std::int64_t batch_size,
                                     std::uint64_t loader_salt)
    : model_(model),
      job_(job),
      loader_(probe, batch_size, /*shuffle=*/true, hash_combine(job.rng_seed, loader_salt)) {}

void TriggerRefineTask::start_random(const Dataset& probe, std::uint64_t init_salt, float lr) {
  Rng rng(hash_combine(job_.rng_seed, init_salt));
  trigger_.emplace(probe.spec().channels, probe.spec().image_size, rng, lr);
}

void TriggerRefineTask::add_input_terms(const Batch&, const Tensor&, Tensor&, TensorArena&) {}

std::int64_t TriggerRefineTask::run_steps(std::int64_t steps, TensorArena& arena) {
  if (exhausted_) return 0;
  std::int64_t ran = 0;
  while (ran < steps) {
    if (!loader_.next(batch_)) {
      loader_.new_epoch();
      if (!loader_.next(batch_)) {
        exhausted_ = true;
        break;
      }
    }
    arena.reset();
    trigger_->zero_grad();
    const Tensor& blended = trigger_->apply_into(batch_.images, arena);
    const Tensor& logits = model_.forward_into(blended, arena);
    const float ce = ce_.forward(logits, job_.target_class);
    Tensor& dblended = model_.backward_into(ce_.backward_into(arena), arena);
    add_input_terms(batch_, blended, dblended, arena);
    trigger_->accumulate_from_output_grad(dblended, batch_.images);
    add_trigger_terms(batch_, arena);
    trigger_->step();
    last_loss_ = after_step(ce, logits);
    ++ran;
  }
  return ran;
}

TriggerEstimate TriggerRefineTask::finalize(TensorArena& arena) {
  TriggerEstimate estimate;
  estimate.target_class = job_.target_class;
  estimate.pattern = trigger_->pattern();
  estimate.mask = trigger_->mask();
  estimate.mask_l1 = trigger_->mask_l1();
  estimate.final_loss = last_loss_;
  estimate.fooling_rate =
      fooling_rate(model_, *job_.probe_cache, *trigger_, job_.target_class, arena);
  return estimate;
}

}  // namespace usb
