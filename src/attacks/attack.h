// Backdoor attack interface.
//
// An attack owns (a) how a victim model is trained to contain the backdoor
// and (b) how the trigger is stamped onto inputs at inference time. The
// experiment harness treats all three paper attacks (BadNet, Latent
// Backdoor, Input-Aware Dynamic) uniformly through this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "nn/trainer.h"

namespace usb {

class BackdoorAttack {
 public:
  virtual ~BackdoorAttack() = default;
  BackdoorAttack() = default;
  BackdoorAttack(const BackdoorAttack&) = delete;
  BackdoorAttack& operator=(const BackdoorAttack&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::int64_t target_class() const = 0;

  /// Trains `network` on `clean_train` while injecting the backdoor.
  virtual TrainResult train_backdoored(Network& network, const Dataset& clean_train,
                                       const TrainConfig& config) = 0;

  /// Stamps the trigger onto a batch (inference-time poisoning).
  [[nodiscard]] virtual Tensor apply_trigger(const Tensor& images) const = 0;

  /// Attack success rate of `network` under this attack's trigger.
  [[nodiscard]] float success_rate(Network& network, const Dataset& test_set) const {
    return targeted_success_rate(
        network, test_set, target_class(),
        [this](const Tensor& images, std::span<const std::int64_t>) {
          return apply_trigger(images);
        });
  }
};

using AttackPtr = std::unique_ptr<BackdoorAttack>;

}  // namespace usb
