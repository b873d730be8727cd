// Neural Cleanse (Wang et al., S&P 2019).
//
// For every class t, optimizes a (pattern, mask) pair so that blending it
// into clean images flips the model to t, under an L1 penalty on the mask
// with the dynamic-lambda schedule of the original paper. The per-class
// mask-L1 statistics feed the MAD outlier rule. The optimization starts
// from a RANDOM point and only the blending reaches the pattern — the
// property the USB paper's Fig. 1 criticizes (the pattern barely moves),
// reproduced faithfully here. The loop itself is the shared
// TriggerRefineTask (defenses/masked_trigger.h); NC adds only its random
// start and the lambda-weighted mask-L1 term.
#pragma once

#include "defenses/detector.h"
#include "defenses/scan_plan.h"

namespace usb {

struct ReverseOptConfig {
  std::int64_t steps = 100;       // optimization iterations per class
  std::int64_t batch_size = 16;
  float lr = 0.1F;                // paper: lr = 0.1
  float lambda_init = 1e-2F;      // initial mask-L1 weight
  double success_threshold = 0.9; // dynamic lambda target fooling rate
  float lambda_up = 1.3F;
  float lambda_down = 1.5F;
  std::uint64_t seed = 99;
  /// Early-exit round scheduling of the optimization loop; bit-identical to
  /// the monolithic scan when disabled.
  EarlyExitOptions early_exit;
};

/// The Neural Cleanse mask-L1 weight schedule, shared by NC and TABOR: push
/// sparsity while the trigger still flips the batch reliably, relax
/// otherwise, within [1e-3, 100] x lambda_init.
class DynamicLambda {
 public:
  explicit DynamicLambda(const ReverseOptConfig& config)
      : config_(config), lambda_(config.lambda_init) {}

  [[nodiscard]] float value() const noexcept { return lambda_; }

  /// Scales lambda by the batch fooling rate: the share of `logits` rows
  /// whose argmax is `target_class`.
  void update(const Tensor& logits, std::int64_t target_class);

 private:
  const ReverseOptConfig& config_;
  float lambda_;
};

class NeuralCleanse final : public Detector {
 public:
  explicit NeuralCleanse(ReverseOptConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "NC"; }
  /// The reified scan (see defenses/scan_plan.h); detect() runs it
  /// synchronously, DetectionService runs it with its probe cache wired in.
  [[nodiscard]] ScanPlan plan() const override;

 private:
  ReverseOptConfig config_;
};

}  // namespace usb
