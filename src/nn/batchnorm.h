// BatchNorm2d with exact backward in both training and eval mode.
//
// Eval-mode backward matters here: backdoor detection differentiates the
// frozen (eval) victim model with respect to its input, so the layer must
// propagate dL/dx through the running-statistics normalization as well as
// through batch statistics during training.
#pragma once

#include "nn/module.h"

namespace usb {

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5F, float momentum = 0.1F);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }

 private:
  std::int64_t channels_;
  float eps_;
  float momentum_;
  Parameter gamma_;
  Parameter beta_;
  // Updated by training-mode forwards only.
  mutable Tensor running_mean_;
  mutable Tensor running_var_;
};

}  // namespace usb
