// USB: Universal Soldier for Backdoor detection — the paper's contribution.
//
// Pipeline per candidate class t (Sections 3.2-3.3):
//   1. Alg. 1  — craft a targeted UAP v toward t over a small clean probe
//                set (300 images for 32x32 data, 500 for the ImageNet
//                substitute).
//   2. Decompose v into an initial (trigger, mask): the mask from the UAP's
//                per-pixel magnitude profile, the trigger from the UAP
//                values ("initialize trigger and mask by v", Alg. 2 line 1).
//   3. Alg. 2  — refine with Adam(0.5, 0.9) under
//                L = CE(f(x'), t) - SSIM(x, x') + w_l1 * |mask|_1 ,
//                x' = x(1-mask) + trigger*mask.
//                This is Neural Cleanse's loop with steps 1-2 as its start
//                and the -SSIM term added, so it runs on the same
//                TriggerRefineTask (defenses/masked_trigger.h) NC and TABOR
//                use; USB supplies only its start and its loss terms.
//   4. The per-class mask-L1 statistics go through the same MAD outlier rule
//                as NC/TABOR.
//
// The UAP initialization is the differentiator: a random NC start contains
// none of an advanced trigger's structure, while the UAP already rides the
// backdoor shortcut (paper Fig. 1 and Appendix A.4).
#pragma once

#include "core/targeted_uap.h"
#include "defenses/detector.h"
#include "defenses/scan_plan.h"
#include "metrics/ssim.h"

namespace usb {

struct UsbConfig {
  TargetedUapConfig uap;
  std::int64_t refine_steps = 120;  // paper: m = 500; scaled default
  std::int64_t batch_size = 16;
  float lr = 0.1F;                  // paper: lr = 0.1, Adam(0.5, 0.9)
  float ssim_weight = 1.0F;         // weight on -SSIM(x, x')
  float l1_weight = 0.02F;          // weight on |mask|_1
  bool use_l1_term = true;          // false reproduces the Fig. 5 ablation
  /// Ablation: skip Alg. 1 and start Alg. 2 from an NC-style random point.
  /// Isolates the value of the UAP initialization (ablation 1, README
  /// "Paper → repo substitutions").
  bool random_init = false;
  /// Mask init: pixels whose UAP magnitude reaches this quantile get mask~1.
  double magnitude_quantile = 0.95;
  /// Root of the per-class RNG streams (Alg. 2 init / loader shuffling).
  std::uint64_t seed = 0xab1a7e0;
  /// Early-exit round scheduling of the Alg. 2 refinement; bit-identical to
  /// the monolithic scan when disabled.
  EarlyExitOptions early_exit;
  SsimConfig ssim;
};

/// The Alg. 1 shared prefix a USB scan attaches to every class job.
struct UsbScanShared final : ScanSharedState {
  UapScanPrefix prefix;
};

class UsbDetector final : public Detector {
 public:
  explicit UsbDetector(UsbConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "USB"; }
  /// The reified scan (see defenses/scan_plan.h): Alg. 1 + Alg. 2 per-class
  /// tasks plus the shared-prefix builder. detect() runs it synchronously;
  /// DetectionService runs it with its probe cache wired in.
  [[nodiscard]] ScanPlan plan() const override;

  /// The full per-class pipeline (Detector::reverse_engineer_class).
  using Detector::reverse_engineer_class;

  /// Alg. 2 alone, started from the given `uap` (1,C,H,W) instead of Alg. 1's
  /// — the paper's Section 4.4 transfer setting, where one UAP is reused
  /// across models of the same architecture. Seeds exactly as the scan
  /// does, so it matches detect() whenever `uap` is what Alg. 1 crafts for
  /// the class. Leaves `model` frozen, as detect() does.
  [[nodiscard]] TriggerEstimate reverse_engineer_class(Network& model, const Dataset& probe,
                                                       std::int64_t target_class,
                                                       const Tensor& uap) const;

  /// Decomposes a UAP (1,C,H,W) into the Alg. 2 starting point.
  struct Decomposition {
    Tensor mask;     // (H,W) in [0,1]
    Tensor pattern;  // (C,H,W) in [0,1]
  };
  [[nodiscard]] Decomposition decompose_uap(const Tensor& uap) const;

  [[nodiscard]] const UsbConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] ScanSharedBuilder make_shared_builder() const;

  UsbConfig config_;
};

}  // namespace usb
