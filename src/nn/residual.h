// Basic residual block (the CIFAR-style ResNet building block):
//   y = ReLU( BN(Conv3x3(BN(Conv3x3(x)) relu)) + shortcut(x) )
// with an optional 1x1 strided projection shortcut when the shape changes.
#pragma once

#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/module.h"

namespace usb {

class ResidualBlock final : public Module {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels, std::int64_t stride,
                Rng& rng);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "ResidualBlock"; }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  bool has_projection_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
};

}  // namespace usb
