// BadNet (Gu et al., 2019): static patch trigger, label-flipping poisoning.
//
// Per the paper's setup, each attack instance draws a random patch colour
// and a random position, then poisons `poison_rate` of the training set by
// stamping the patch and relabeling to the target class.
#pragma once

#include "attacks/attack.h"
#include "utils/rng.h"

namespace usb {

struct BadNetConfig {
  std::int64_t trigger_size = 3;   // k x k pixels
  std::int64_t target_class = 0;
  double poison_rate = 0.05;
  std::uint64_t seed = 7;
};

class BadNet final : public BackdoorAttack {
 public:
  /// Draws the patch colour/position deterministically from config.seed for
  /// the given dataset geometry. Throws std::invalid_argument unless the
  /// trigger fits the image and the target is in [0, spec.num_classes).
  BadNet(BadNetConfig config, const DatasetSpec& spec);

  [[nodiscard]] std::string name() const override { return "badnet"; }
  [[nodiscard]] std::int64_t target_class() const override { return config_.target_class; }

  TrainResult train_backdoored(Network& network, const Dataset& clean_train,
                               const TrainConfig& config) override;
  [[nodiscard]] Tensor apply_trigger(const Tensor& images) const override;

  /// Statically poisons a copy of `clean`: stamps + relabels a poison_rate
  /// fraction of rows. Exposed for tests and for the Latent attack.
  [[nodiscard]] Dataset poison_dataset(const Dataset& clean) const;

  /// The ground-truth trigger as a full-size image (zeros off-patch);
  /// rendered in the figure benches next to reverse-engineered triggers.
  [[nodiscard]] Tensor trigger_image() const;

  [[nodiscard]] std::int64_t position_y() const noexcept { return pos_y_; }
  [[nodiscard]] std::int64_t position_x() const noexcept { return pos_x_; }
  [[nodiscard]] const Tensor& patch() const noexcept { return patch_; }

 private:
  void stamp(Tensor& images) const;

  BadNetConfig config_;
  DatasetSpec spec_;
  Tensor patch_;  // (C, k, k) random colours
  std::int64_t pos_y_ = 0;
  std::int64_t pos_x_ = 0;
};

}  // namespace usb
