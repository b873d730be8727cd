#include "core/usb.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/dataloader.h"
#include "defenses/masked_trigger.h"
#include "defenses/scan_plan.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

// Per-class stream salts: sub-streams derived from the job's class root.
constexpr std::uint64_t kInitSalt = 0xab1a;
constexpr std::uint64_t kLoaderSalt = 0x05b;

/// The per-class USB pipeline in resumable form: the constructor runs
/// Alg. 1 (or adopts the transferred/shared UAP) and the Alg. 2
/// initialization; run_steps advances the refinement loop in slices whose
/// concatenation is bit-identical to one uninterrupted run (the loop body
/// never reads the step index, and all carried state — loader cursor, Adam
/// moments, last loss — lives here); finalize evaluates the fooling rate
/// over the scan's shared probe cache.
///
/// Every per-step tensor — the blended batch, the forward/backward chain,
/// the SSIM maps and gradient — lives in the task's TensorArena, reset at
/// each step boundary; together with the recycled loader batch and trigger
/// scratch, the steady-state step performs ZERO Tensor heap allocations
/// (asserted by tests/test_arena.cpp and the bench alloc-pressure entry).
class UsbRefineTask final : public ClassRefineTask {
 public:
  UsbRefineTask(const UsbDetector& detector, const Network& model, const Dataset& probe,
                const ClassScanJob& job, const std::optional<Tensor>& precomputed_uap)
      : config_(detector.config()),
        model_(model),
        job_(job),
        loader_(probe, config_.batch_size, /*shuffle=*/true,
                hash_combine(job.rng_seed, kLoaderSalt)) {
    const std::int64_t target_class = job_.target_class;

    // ---- Alg. 1: targeted UAP (or the transferred one). ----
    const auto* shared = dynamic_cast<const UsbScanShared*>(job_.shared);
    Tensor uap(Shape{1, probe.spec().channels, probe.spec().image_size, probe.spec().image_size});
    if (precomputed_uap.has_value()) {
      uap = *precomputed_uap;
    } else if (!config_.random_init) {
      uap = targeted_uap(model_, probe, target_class, config_.uap,
                         shared != nullptr ? &shared->prefix : nullptr, &arena_)
                .perturbation;
    }

    // ---- Alg. 2 init: trigger x mask from the UAP decomposition. ----
    Rng init_rng(hash_combine(job_.rng_seed, kInitSalt));
    if (config_.random_init && !precomputed_uap.has_value()) {
      trigger_.emplace(probe.spec().channels, probe.spec().image_size, init_rng, config_.lr);
    } else {
      const UsbDetector::Decomposition init = detector.decompose_uap(uap);
      trigger_.emplace(init.mask, init.pattern, config_.lr);
    }
  }

  std::int64_t run_steps(std::int64_t steps) override {
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
      arena_.reset();
      trigger_->zero_grad();
      const Tensor& blended = trigger_->apply_into(batch_.images, arena_);

      // CE(f(x'), t)
      const Tensor& logits = model_.forward_into(blended, arena_);
      const float ce_value = ce_.forward(logits, job_.target_class);
      Tensor& dblended = model_.backward_into(ce_.backward_into(arena_), arena_);

      // -SSIM(x, x'): keep x' structurally close to the clean batch.
      const SsimGradRef ssim_result =
          ssim_with_gradient(batch_.images, blended, arena_, config_.ssim);
      dblended.add_scaled(*ssim_result.grad_y, -config_.ssim_weight);

      trigger_->accumulate_from_output_grad(dblended, batch_.images);
      if (config_.use_l1_term) trigger_->add_mask_l1_grad(config_.l1_weight);
      trigger_->step();

      last_loss_ = ce_value - config_.ssim_weight * ssim_result.value +
                   (config_.use_l1_term
                        ? config_.l1_weight * static_cast<float>(trigger_->mask_l1())
                        : 0.0F);
      ++ran;
    }
    return ran;
  }

  [[nodiscard]] double current_mask_l1() const override { return trigger_->mask_l1(); }

  [[nodiscard]] TriggerEstimate finalize() override {
    return finalize_estimate(model_, job_, *trigger_, last_loss_, &arena_);
  }

 private:
  const UsbConfig& config_;
  const Network& model_;
  const ClassScanJob job_;
  DataLoader loader_;
  TensorArena arena_;  // per-task slots, reset at step boundaries
  Batch batch_;        // recycled loader batch
  std::optional<MaskedTrigger> trigger_;
  TargetedCrossEntropy ce_;
  float last_loss_ = 0.0F;
  bool exhausted_ = false;
};

}  // namespace

ScanSharedBuilder UsbDetector::make_shared_builder() const {
  // The shared prefix only exists when Alg. 1 actually runs per class.
  if (!config_.share_prefix || config_.random_init) return nullptr;
  return [this](const Network& model, const Dataset& probe) {
    auto shared = std::make_shared<UsbScanShared>();
    shared->prefix =
        build_uap_scan_prefix(model, probe, config_.uap, probe.spec().num_classes);
    return std::shared_ptr<const ScanSharedState>(std::move(shared));
  };
}

UsbDetector::Decomposition UsbDetector::decompose_uap(const Tensor& uap) const {
  const std::int64_t channels = uap.dim(1);
  const std::int64_t size = uap.dim(2);
  const std::int64_t spatial = size * size;

  // Per-pixel magnitude profile (mean |v| across channels).
  std::vector<float> magnitude(static_cast<std::size_t>(spatial), 0.0F);
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t s = 0; s < spatial; ++s) {
      magnitude[static_cast<std::size_t>(s)] += std::abs(uap[c * spatial + s]);
    }
  }
  for (float& m : magnitude) m /= static_cast<float>(channels);

  // Normalizing quantile: pixels at/above it start with mask ~= 1, the rest
  // proportionally lower — the UAP's energy profile becomes the mask.
  std::vector<float> sorted = magnitude;
  std::sort(sorted.begin(), sorted.end());
  const auto q_index = static_cast<std::size_t>(
      std::clamp(config_.magnitude_quantile, 0.0, 1.0) *
      static_cast<double>(sorted.size() - 1));
  const float scale = std::max(sorted[q_index], 1e-6F);

  Decomposition out;
  out.mask = Tensor(Shape{size, size});
  for (std::int64_t s = 0; s < spatial; ++s) {
    out.mask[s] = std::clamp(magnitude[static_cast<std::size_t>(s)] / scale, 0.01F, 0.97F);
  }

  // Trigger init: the pixel value the UAP drives toward, around mid-gray
  // (images live in [0,1]; v is a signed displacement).
  out.pattern = Tensor(Shape{channels, size, size});
  for (std::int64_t i = 0; i < out.pattern.numel(); ++i) {
    out.pattern[i] = std::clamp(0.5F + uap[i], 0.02F, 0.98F);
  }
  return out;
}

TriggerEstimate UsbDetector::reverse_engineer_class(
    Network& model, const Dataset& probe, std::int64_t target_class,
    const std::optional<Tensor>& precomputed_uap) {
  model.freeze();
  const ClassScanOptions options = plan().options;
  const ProbeBatchCache cache(probe);
  UsbRefineTask task(*this, model, probe, make_class_job(options, target_class, cache),
                     precomputed_uap);
  (void)task.run_steps(config_.refine_steps);
  return task.finalize();
}

ScanPlan UsbDetector::plan() const {
  ScanPlan scan;
  scan.method = name();
  scan.options.mad_threshold = config_.mad_threshold;
  scan.options.base_seed = config_.seed;
  scan.options.pool = config_.scan_pool;
  scan.options.early_exit = config_.early_exit;
  scan.total_steps = config_.refine_steps;
  scan.make_task = [this](const Network& model, const Dataset& data,
                          const ClassScanJob& job) -> std::unique_ptr<ClassRefineTask> {
    return std::make_unique<UsbRefineTask>(*this, model, data, job, std::nullopt);
  };
  scan.shared_builder = make_shared_builder();
  return scan;
}

}  // namespace usb
