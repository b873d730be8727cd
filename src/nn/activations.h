// Pointwise activation layers: ReLU, Sigmoid, Tanh, SiLU (swish), on the
// dispatched kernels of tensor/elementwise.h. Each forward records the
// tensor its backward reads (ReLU/SiLU: the input, Sigmoid/Tanh: the
// output) in the arena's cache; SiLU also keeps its sigmoid in a slot.
#pragma once

#include "nn/module.h"

namespace usb {

class ReLU final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
};

class Sigmoid final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
};

class Tanh final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }
};

/// SiLU(x) = x * sigmoid(x); the EfficientNet activation.
class SiLU final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;
  [[nodiscard]] std::string name() const override { return "SiLU"; }
};

}  // namespace usb
