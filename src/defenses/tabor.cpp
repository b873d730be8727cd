#include "defenses/tabor.h"

#include <memory>

#include "defenses/masked_trigger.h"

namespace usb {
namespace {

// Per-class stream salts: sub-streams derived from the job's class root.
constexpr std::uint64_t kInitSalt = 0x7ab0;
constexpr std::uint64_t kLoaderSalt = 0x7ab1;

/// TABOR's per-class task: NC's random start and lambda-weighted mask-L1,
/// then the four regularizers. Each step still pays the R3 and R4 extra
/// forward/backward passes (on the step's arena), the cost structure the
/// paper's Table 7 reports — early exit attacks exactly that
/// (K x steps x 3 forwards) budget.
class TaborRefineTask final : public TriggerRefineTask {
 public:
  TaborRefineTask(const TaborConfig& config, const Network& model, const Dataset& probe,
                  const ClassScanJob& job)
      : TriggerRefineTask(model, probe, job, config.base.batch_size, kLoaderSalt),
        config_(config),
        channels_(probe.spec().channels),
        size_(probe.spec().image_size),
        lambda_(config.base) {
    start_random(probe, kInitSalt, config.base.lr);
  }

 private:
  void add_trigger_terms(const Batch& batch, TensorArena& arena) override {
    const std::int64_t spatial = size_ * size_;
    trigger_->add_mask_l1_grad(lambda_.value());

    const Tensor& m = trigger_->mask_values();
    const Tensor& p = trigger_->pattern_values();

    // R1: elastic net on the mask and on the out-of-mask pattern (1-m)*p.
    trigger_->add_mask_elastic_grad(config_.elastic_mask_weight);
    {
      Tensor& dp = arena.zeros(p.shape());
      Tensor& dm = arena.zeros(m.shape());
      for (std::int64_t c = 0; c < channels_; ++c) {
        for (std::int64_t s = 0; s < spatial; ++s) {
          const float value = (1.0F - m[s]) * p[c * spatial + s];
          const float upstream =
              config_.elastic_pattern_weight * ((value > 0.0F ? 1.0F : 0.0F) + 2.0F * value);
          dp[c * spatial + s] += upstream * (1.0F - m[s]);
          dm[s] += upstream * (-p[c * spatial + s]);
        }
      }
      trigger_->add_pattern_value_grad(dp);
      trigger_->add_mask_value_grad(dm);
    }

    // R2: total-variation smoothness on the mask.
    trigger_->add_mask_tv_grad(config_.tv_weight);

    // R3 "blocking": removing the masked region must preserve the true
    // labels: CE(f(x * (1-m)), y).
    {
      Tensor& removed = arena.alloc(batch.images.shape());
      const std::int64_t bsz = removed.dim(0);
      for (std::int64_t n = 0; n < bsz; ++n) {
        for (std::int64_t c = 0; c < channels_; ++c) {
          const float* xrow = batch.images.raw() + (n * channels_ + c) * spatial;
          float* row = removed.raw() + (n * channels_ + c) * spatial;
          for (std::int64_t s = 0; s < spatial; ++s) row[s] = xrow[s] * (1.0F - m[s]);
        }
      }
      const Tensor& removed_logits = model_.forward_into(removed, arena);
      (void)true_loss_.forward(removed_logits, batch.labels);
      const Tensor& dremoved = model_.backward_into(true_loss_.backward_into(arena), arena);
      Tensor& dm = arena.zeros(m.shape());
      for (std::int64_t n = 0; n < bsz; ++n) {
        for (std::int64_t c = 0; c < channels_; ++c) {
          const float* drow = dremoved.raw() + (n * channels_ + c) * spatial;
          const float* xrow = batch.images.raw() + (n * channels_ + c) * spatial;
          for (std::int64_t s = 0; s < spatial; ++s) dm[s] += drow[s] * (-xrow[s]);
        }
      }
      dm *= config_.blocking_weight;
      trigger_->add_mask_value_grad(dm);
    }

    // R4 "overlaying": the isolated trigger p*m must classify to target.
    {
      Tensor& isolated = arena.alloc(Shape{1, channels_, size_, size_});
      for (std::int64_t c = 0; c < channels_; ++c) {
        for (std::int64_t s = 0; s < spatial; ++s) {
          isolated[c * spatial + s] = p[c * spatial + s] * m[s];
        }
      }
      const Tensor& iso_logits = model_.forward_into(isolated, arena);
      (void)overlay_loss_.forward(iso_logits, job_.target_class);
      const Tensor& diso = model_.backward_into(overlay_loss_.backward_into(arena), arena);
      Tensor& dp = arena.zeros(p.shape());
      Tensor& dm = arena.zeros(m.shape());
      for (std::int64_t c = 0; c < channels_; ++c) {
        for (std::int64_t s = 0; s < spatial; ++s) {
          dp[c * spatial + s] += diso[c * spatial + s] * m[s];
          dm[s] += diso[c * spatial + s] * p[c * spatial + s];
        }
      }
      dp *= config_.overlay_weight;
      dm *= config_.overlay_weight;
      trigger_->add_pattern_value_grad(dp);
      trigger_->add_mask_value_grad(dm);
    }
  }

  float after_step(float ce, const Tensor& logits) override {
    lambda_.update(logits, job_.target_class);
    return ce;
  }

  const TaborConfig& config_;
  SoftmaxCrossEntropy true_loss_;
  TargetedCrossEntropy overlay_loss_;
  std::int64_t channels_;
  std::int64_t size_;
  DynamicLambda lambda_;
};

}  // namespace

ScanPlan Tabor::plan() const {
  ScanPlan scan;
  scan.method = name();
  scan.options.base_seed = config_.base.seed;
  scan.options.early_exit = config_.base.early_exit;
  scan.total_steps = config_.base.steps;
  scan.make_task = [this](const Network& model, const Dataset& data, const ClassScanJob& job,
                          TensorArena&) -> std::unique_ptr<ClassRefineTask> {
    return std::make_unique<TaborRefineTask>(config_, model, data, job);
  };
  return scan;
}

}  // namespace usb
