// Input-Aware Dynamic Backdoor (Nguyen & Tran, NeurIPS 2020).
//
// Unlike BadNet's static patch, IAD derives the trigger FROM the input, so
// every poisoned image carries a different trigger, and a trigger lifted
// from one image should not activate the backdoor on another (the
// "cross-trigger" / non-reusability property). That combination is what
// defeats static reverse engineering: no single (pattern, mask) pair
// reproduces the backdoor, which is why NC and TABOR score zero detections
// on IAD in the paper's Table 3.
//
// Substitution note (README "Paper → repo substitutions"): the original
// attack trains the generator jointly with the classifier — a min-max game
// that is unstable at this repo's scale of a few CPU epochs. We keep the
// generator FIXED at its random initialization (a random convnet already
// emits diverse, input-keyed fields) and poison with RANDOMLY SCALED
// amplitudes, which makes the victim hypersensitive to faint traces of the
// trigger texture. The resulting model has the property the paper
// measures: gradient-guided universal perturbations (USB's Alg. 1) find the
// shortcut, while random-start mask optimization (NC/TABOR) does not.
#pragma once

#include <vector>

#include "attacks/attack.h"
#include "nn/sequential.h"
#include "utils/rng.h"

namespace usb {

struct IadConfig {
  std::int64_t target_class = 0;
  float epsilon = 0.25F;           // inference-time trigger amplitude
  float min_train_epsilon = 0.06F; // training amplitudes span [min, epsilon]
  double poison_fraction = 0.20;   // sub-batch trained to the target class
  double cross_fraction = 0.0;     // transplanted-trigger sub-batch
  std::uint64_t seed = 7;
};

class Iad final : public BackdoorAttack {
 public:
  /// Throws std::invalid_argument unless the target is in
  /// [0, spec.num_classes).
  Iad(IadConfig config, const DatasetSpec& spec);

  [[nodiscard]] std::string name() const override { return "iad"; }
  [[nodiscard]] std::int64_t target_class() const override { return config_.target_class; }

  TrainResult train_backdoored(Network& network, const Dataset& clean_train,
                               const TrainConfig& config) override;
  [[nodiscard]] Tensor apply_trigger(const Tensor& images) const override;

  /// The per-input trigger field eps*g(x) for visualization and tests of
  /// the input-awareness property.
  [[nodiscard]] Tensor trigger_field(const Tensor& images) const;

 private:
  IadConfig config_;
  DatasetSpec spec_;
  Sequential generator_;  // fixed random convnet (see substitution note)
};

}  // namespace usb
