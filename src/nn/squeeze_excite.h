// Squeeze-and-Excitation channel attention + the MBConv block used by the
// scaled EfficientNet substitute (MiniEffNet).
#pragma once

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace usb {

/// SE block: per-channel gates z = sigmoid(W2 silu(W1 GAP(x))); y = x * z.
class SqueezeExcite final : public Module {
 public:
  SqueezeExcite(std::int64_t channels, std::int64_t reduced, Rng& rng);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "SqueezeExcite"; }

 private:
  std::int64_t channels_;
  Linear fc1_;
  SiLU act_;
  Linear fc2_;
  Sigmoid gate_;
};

/// EfficientNet MBConv: 1x1 expand -> depthwise 3x3 -> SE -> 1x1 project,
/// BN+SiLU between stages, residual skip when the shape is preserved.
class MBConvBlock final : public Module {
 public:
  MBConvBlock(std::int64_t in_channels, std::int64_t out_channels, std::int64_t stride,
              std::int64_t expand_ratio, Rng& rng);

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "MBConvBlock"; }

 private:
  bool has_expand_;
  bool has_skip_;
  std::unique_ptr<Conv2d> expand_conv_;
  std::unique_ptr<BatchNorm2d> expand_bn_;
  std::unique_ptr<SiLU> expand_act_;
  Conv2d depthwise_;
  BatchNorm2d dw_bn_;
  SiLU dw_act_;
  SqueezeExcite se_;
  Conv2d project_;
  BatchNorm2d project_bn_;
};

}  // namespace usb
