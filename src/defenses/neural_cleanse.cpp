#include "defenses/neural_cleanse.h"

#include <algorithm>
#include <memory>

#include "defenses/masked_trigger.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

// Per-class stream salts: sub-streams derived from the job's class root.
constexpr std::uint64_t kInitSalt = 0x01;
constexpr std::uint64_t kLoaderSalt = 0x2c;

/// NC's per-class task: a random start, then the shared loop with the
/// lambda-weighted mask-L1 term.
class NcRefineTask final : public TriggerRefineTask {
 public:
  NcRefineTask(const ReverseOptConfig& config, const Network& model, const Dataset& probe,
               const ClassScanJob& job)
      : TriggerRefineTask(model, probe, job, config.batch_size, kLoaderSalt), lambda_(config) {
    start_random(probe, kInitSalt, config.lr);
  }

 private:
  void add_trigger_terms(const Batch&, TensorArena&) override {
    trigger_->add_mask_l1_grad(lambda_.value());
  }

  float after_step(float ce, const Tensor& logits) override {
    lambda_.update(logits, job_.target_class);
    return ce;
  }

  DynamicLambda lambda_;
};

}  // namespace

void DynamicLambda::update(const Tensor& logits, std::int64_t target_class) {
  const std::vector<std::int64_t> preds = argmax_rows(logits);
  std::int64_t hits = 0;
  for (const std::int64_t pred : preds) {
    if (pred == target_class) ++hits;
  }
  const double success = static_cast<double>(hits) / static_cast<double>(preds.size());
  if (success > config_.success_threshold) {
    lambda_ = std::min(lambda_ * config_.lambda_up, 100.0F * config_.lambda_init);
  } else {
    lambda_ = std::max(lambda_ / config_.lambda_down, 1e-3F * config_.lambda_init);
  }
}

ScanPlan NeuralCleanse::plan() const {
  ScanPlan scan;
  scan.method = name();
  scan.options.base_seed = config_.seed;
  scan.options.early_exit = config_.early_exit;
  scan.total_steps = config_.steps;
  scan.make_task = [this](const Network& model, const Dataset& data, const ClassScanJob& job,
                          TensorArena&) -> std::unique_ptr<ClassRefineTask> {
    return std::make_unique<NcRefineTask>(config_, model, data, job);
  };
  return scan;
}

}  // namespace usb
