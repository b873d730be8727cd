// Fully connected layer: y = x W^T + b.
#pragma once

#include "nn/module.h"
#include "utils/rng.h"

namespace usb {

class Linear final : public Module {
 public:
  /// Weight (out_features, in_features) Kaiming-initialized; bias zero.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "Linear"; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Parameter weight_;
  Parameter bias_;
};

}  // namespace usb
