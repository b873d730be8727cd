// TABOR (Guo et al., ICDM 2020): Neural Cleanse plus four regularizers that
// penalize degenerate reversed triggers.
//
//   R1 "overly large":  elastic net on the mask and on the pattern energy
//                       outside the mask, (1-m) * p.
//   R2 "scattered":     total-variation smoothness on the mask.
//   R3 "blocking":      the mask must not cover class evidence —
//                       f(x * (1-m)) should still produce the TRUE label.
//   R4 "overlaying":    the trigger alone should already hit the target —
//                       CE(f(p * m), t).
// R3/R4 each cost an extra forward/backward per step, which is why TABOR is
// the slowest method in the paper's Table 7; that cost structure carries
// over here. The loop is the shared TriggerRefineTask
// (defenses/masked_trigger.h); TABOR adds NC's terms, then R1-R4.
#pragma once

#include "defenses/detector.h"
#include "defenses/neural_cleanse.h"

namespace usb {

struct TaborConfig {
  ReverseOptConfig base;
  float elastic_mask_weight = 1e-3F;
  float elastic_pattern_weight = 1e-4F;
  float tv_weight = 1e-4F;
  float blocking_weight = 0.05F;
  float overlay_weight = 0.05F;
};

class Tabor final : public Detector {
 public:
  explicit Tabor(TaborConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "TABOR"; }
  /// The reified scan (see defenses/scan_plan.h); detect() runs it
  /// synchronously, DetectionService runs it with its probe cache wired in.
  [[nodiscard]] ScanPlan plan() const override;

 private:
  TaborConfig config_;
};

}  // namespace usb
