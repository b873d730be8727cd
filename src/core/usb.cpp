#include "core/usb.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "defenses/masked_trigger.h"

namespace usb {
namespace {

// Per-class stream salts: sub-streams derived from the job's class root.
constexpr std::uint64_t kInitSalt = 0xab1a;
constexpr std::uint64_t kLoaderSalt = 0x05b;

/// The per-class USB pipeline: the constructor runs Alg. 1 (or adopts the
/// transferred UAP) and the Alg. 2 initialization; the shared loop then
/// refines under the -SSIM and mask-L1 terms. Alg. 1 runs on the task's
/// arena, so refinement reuses its slots.
class UsbRefineTask final : public TriggerRefineTask {
 public:
  /// `transferred_uap` (nullable) skips Alg. 1, as in the transfer setting.
  UsbRefineTask(const UsbDetector& detector, const Network& model, const Dataset& probe,
                const ClassScanJob& job, const Tensor* transferred_uap)
      : TriggerRefineTask(model, probe, job, detector.config().batch_size, kLoaderSalt),
        config_(detector.config()) {
    if (transferred_uap == nullptr && config_.random_init) {
      start_random(probe, kInitSalt, config_.lr);
      return;
    }
    // ---- Alg. 1: targeted UAP (or the transferred one). ----
    Tensor crafted;
    if (transferred_uap == nullptr) {
      const auto* shared = dynamic_cast<const UsbScanShared*>(job.shared);
      crafted = targeted_uap(model, probe, job.target_class, config_.uap,
                             shared != nullptr ? &shared->prefix : nullptr, &arena_)
                    .perturbation;
    }
    // ---- Alg. 2 init: trigger x mask from the UAP decomposition. ----
    const UsbDetector::Decomposition init =
        detector.decompose_uap(transferred_uap != nullptr ? *transferred_uap : crafted);
    trigger_.emplace(init.mask, init.pattern, config_.lr);
  }

 private:
  // -SSIM(x, x'): keep x' structurally close to the clean batch.
  void add_input_terms(const Batch& batch, const Tensor& blended, Tensor& dblended) override {
    const SsimGradRef ssim = ssim_with_gradient(batch.images, blended, arena_, config_.ssim);
    dblended.add_scaled(*ssim.grad_y, -config_.ssim_weight);
    ssim_value_ = ssim.value;
  }

  void add_trigger_terms(const Batch&) override {
    if (config_.use_l1_term) trigger_->add_mask_l1_grad(config_.l1_weight);
  }

  float after_step(float ce, const Tensor&) override {
    return ce - config_.ssim_weight * ssim_value_ +
           (config_.use_l1_term ? config_.l1_weight * static_cast<float>(trigger_->mask_l1())
                                : 0.0F);
  }

  const UsbConfig& config_;
  float ssim_value_ = 0.0F;  // this step's SSIM(x, x'), for the loss value
};

}  // namespace

ScanSharedBuilder UsbDetector::make_shared_builder() const {
  // The shared prefix only exists when Alg. 1 actually runs per class.
  if (config_.random_init) return nullptr;
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

TriggerEstimate UsbDetector::reverse_engineer_class(Network& model, const Dataset& probe,
                                                    std::int64_t target_class,
                                                    const Tensor& uap) const {
  model.freeze();
  const ProbeBatchCache cache(probe);
  UsbRefineTask task(*this, model, probe, make_class_job(plan().options, target_class, cache),
                     &uap);
  (void)task.run_steps(config_.refine_steps);
  return task.finalize();
}

ScanPlan UsbDetector::plan() const {
  ScanPlan scan;
  scan.method = name();
  scan.options.base_seed = config_.seed;
  scan.options.early_exit = config_.early_exit;
  scan.total_steps = config_.refine_steps;
  scan.make_task = [this](const Network& model, const Dataset& data,
                          const ClassScanJob& job) -> std::unique_ptr<ClassRefineTask> {
    return std::make_unique<UsbRefineTask>(*this, model, data, job, nullptr);
  };
  scan.shared_builder = make_shared_builder();
  return scan;
}

}  // namespace usb
