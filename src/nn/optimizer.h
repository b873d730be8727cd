// Optimizers: SGD for training, AdamState for free tensors.
//
// The paper trains victim models with SGD-style settings from TrojanZoo
// (Sgd, over a network's Parameters) and runs trigger reverse engineering
// with Adam(beta = (0.5, 0.9)). The variables detection optimizes (trigger,
// mask, UAP) are image-space tensors, not module Parameters, so Adam exists
// only as AdamState: the moments of one free tensor.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace usb {

struct SgdConfig {
  float lr = 0.01F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
};

/// SGD with momentum and weight decay over a fixed parameter list.
class Sgd {
 public:
  Sgd(std::vector<Parameter*> params, SgdConfig config);

  /// Applies one update from the accumulated gradients.
  void step();

  void zero_grad() {
    for (Parameter* p : params_) p->zero_grad();
  }

  void set_lr(float lr) noexcept { config_.lr = lr; }
  [[nodiscard]] float lr() const noexcept { return config_.lr; }

 private:
  std::vector<Parameter*> params_;
  SgdConfig config_;
  std::vector<Tensor> velocity_;
};

struct AdamConfig {
  float lr = 0.1F;
  float beta1 = 0.5F;  // paper's detection optimizer: Adam(beta=(0.5, 0.9))
  float beta2 = 0.9F;
  float eps = 1e-8F;
};

/// Standalone Adam state for a single free tensor (e.g. a trigger or mask
/// image optimized outside any Module).
class AdamState {
 public:
  AdamState(Shape shape, AdamConfig config)
      : config_(config), m_(shape), v_(shape) {}

  /// Applies one Adam update to `value` in place given its gradient.
  void step(Tensor& value, const Tensor& grad);

 private:
  AdamConfig config_;
  Tensor m_;
  Tensor v_;
  std::int64_t t_ = 0;
};

}  // namespace usb
