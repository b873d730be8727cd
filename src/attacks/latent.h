// Latent Backdoor (Yao et al., CCS 2019), adapted to end-to-end training.
//
// The original attack poisons a teacher so that triggered inputs match the
// TARGET CLASS'S LATENT REPRESENTATION, making the backdoor survive
// fine-tuning of the classifier head. We reproduce the mechanism in two
// phases: (A) train normally and record the target class's feature-space
// centroid; (B) continue training with the standard CE loss plus, on the
// poisoned fraction, CE-to-target and an MSE pull of the triggered inputs'
// features toward the recorded centroid. The result is a backdoor encoded
// in the feature extractor rather than only in the head — the property that
// makes it "stronger" than BadNet in the paper's Table 3.
#pragma once

#include "attacks/badnet.h"

namespace usb {

struct LatentBackdoorConfig {
  std::int64_t trigger_size = 4;  // paper: 4 x 4 x 3
  std::int64_t target_class = 0;
  double poison_rate = 0.1;       // fraction of each phase-B batch poisoned
  float alignment_weight = 0.3F;  // lambda on the feature-space MSE
  std::uint64_t seed = 7;
};

class LatentBackdoor final : public BackdoorAttack {
 public:
  LatentBackdoor(LatentBackdoorConfig config, const DatasetSpec& spec);

  [[nodiscard]] std::string name() const override { return "latent"; }
  [[nodiscard]] std::int64_t target_class() const override { return config_.target_class; }

  TrainResult train_backdoored(Network& network, const Dataset& clean_train,
                               const TrainConfig& config) override;
  [[nodiscard]] Tensor apply_trigger(const Tensor& images) const override;

  [[nodiscard]] Tensor trigger_image() const { return stamper_.trigger_image(); }

 private:
  LatentBackdoorConfig config_;
  BadNet stamper_;  // reuses the patch stamping machinery
};

}  // namespace usb
