// Conv2d layer (square kernels, optional groups for depthwise convolution).
#pragma once

#include "nn/module.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {

class Conv2d final : public Module {
 public:
  Conv2d(Conv2dSpec spec, Rng& rng, bool with_bias = true);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  [[nodiscard]] const Conv2dSpec& spec() const noexcept { return spec_; }

 private:
  Conv2dSpec spec_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
};

}  // namespace usb
