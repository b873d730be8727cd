#include "defenses/neural_cleanse.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "data/dataloader.h"
#include "defenses/masked_trigger.h"
#include "defenses/scan_plan.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {
namespace {

// Per-class stream salts: sub-streams derived from the job's class root.
constexpr std::uint64_t kInitSalt = 0x01;
constexpr std::uint64_t kLoaderSalt = 0x2c;

/// The per-class NC optimization in resumable form (see ClassRefineTask):
/// run_steps slices concatenate bit-identically to one uninterrupted loop —
/// the body never reads the step index, and the loader cursor, Adam
/// moments, dynamic lambda and last loss all live here.
class NcRefineTask final : public ClassRefineTask {
 public:
  NcRefineTask(const ReverseOptConfig& config, const Network& model, const Dataset& probe,
               const ClassScanJob& job)
      : config_(config),
        model_(model),
        job_(job),
        loader_(probe, config.batch_size, /*shuffle=*/true,
                hash_combine(job.rng_seed, kLoaderSalt)),
        lambda_(config.lambda_init) {
    Rng rng(hash_combine(job_.rng_seed, kInitSalt));
    trigger_.emplace(probe.spec().channels, probe.spec().image_size, rng, config_.lr);
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
      // Per-step tensors live in the task arena (reset here), the loader
      // batch and trigger scratch are recycled members: the steady-state
      // step performs zero Tensor heap allocations.
      arena_.reset();
      trigger_->zero_grad();
      const Tensor& blended = trigger_->apply_into(batch_.images, arena_);
      const Tensor& logits = model_.forward_into(blended, arena_);
      last_loss_ = loss_.forward(logits, job_.target_class);
      const Tensor& dblended = model_.backward_into(loss_.backward_into(arena_), arena_);
      trigger_->accumulate_from_output_grad(dblended, batch_.images);
      trigger_->add_mask_l1_grad(lambda_);
      trigger_->step();

      // Dynamic lambda (Neural Cleanse schedule): push sparsity while the
      // trigger still flips the batch reliably, relax otherwise.
      std::int64_t hits = 0;
      for (const std::int64_t pred : argmax_rows(logits)) {
        if (pred == job_.target_class) ++hits;
      }
      const double success =
          static_cast<double>(hits) / static_cast<double>(batch_.labels.size());
      if (success > config_.success_threshold) {
        lambda_ = std::min(lambda_ * config_.lambda_up, 100.0F * config_.lambda_init);
      } else {
        lambda_ = std::max(lambda_ / config_.lambda_down, 1e-3F * config_.lambda_init);
      }
      ++ran;
    }
    return ran;
  }

  [[nodiscard]] double current_mask_l1() const override { return trigger_->mask_l1(); }

  [[nodiscard]] TriggerEstimate finalize() override {
    return finalize_estimate(model_, job_, *trigger_, last_loss_, &arena_);
  }

 private:
  const ReverseOptConfig& config_;
  const Network& model_;
  const ClassScanJob job_;
  DataLoader loader_;
  TensorArena arena_;
  Batch batch_;
  std::optional<MaskedTrigger> trigger_;
  TargetedCrossEntropy loss_;
  float lambda_;
  float last_loss_ = 0.0F;
  bool exhausted_ = false;
};

}  // namespace

TriggerEstimate NeuralCleanse::reverse_engineer_class(Network& model, const Dataset& probe,
                                                      std::int64_t target_class) {
  model.freeze();
  const ClassScanOptions options = plan().options;
  const ProbeBatchCache cache(probe);
  NcRefineTask task(config_, model, probe, make_class_job(options, target_class, cache));
  (void)task.run_steps(config_.steps);
  return task.finalize();
}

ScanPlan NeuralCleanse::plan() const {
  ScanPlan scan;
  scan.method = name();
  scan.options.mad_threshold = config_.mad_threshold;
  scan.options.base_seed = config_.seed;
  scan.options.pool = config_.scan_pool;
  scan.options.early_exit = config_.early_exit;
  scan.total_steps = config_.steps;
  scan.make_task = [this](const Network& model, const Dataset& data,
                          const ClassScanJob& job) -> std::unique_ptr<ClassRefineTask> {
    return std::make_unique<NcRefineTask>(config_, model, data, job);
  };
  return scan;
}

}  // namespace usb
