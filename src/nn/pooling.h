// Pooling layers wrapping the tensor kernels. Each forward records its
// input in the arena's cache (backward needs its shape); MaxPool2d also
// records the argmax indices.
#pragma once

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace usb {

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(Pool2dSpec spec) : spec_(spec) {}

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  Pool2dSpec spec_;
};

class AvgPool2d final : public Module {
 public:
  explicit AvgPool2d(Pool2dSpec spec) : spec_(spec) {}

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "AvgPool2d"; }

 private:
  Pool2dSpec spec_;
};

/// (N,C,H,W) -> (N,C,1,1) spatial mean; the classifier-head pool.
class GlobalAvgPool final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }
};

/// (N,C,H,W) -> (N, C*H*W).
class Flatten final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
};

}  // namespace usb
