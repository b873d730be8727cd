// Loss functions with exact gradients.
//
// All three losses cache into recycled member scratch and return their
// gradient in a slot of the caller's arena (backward_into), so a
// steady-state loss forward+backward pair performs zero heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace usb {

/// Fused softmax + cross-entropy over hard labels, mean-reduced.
class SoftmaxCrossEntropy {
 public:
  /// Returns the mean CE loss of logits (N,C) against labels. Throws
  /// std::invalid_argument on a shape mismatch or a label outside [0, C).
  [[nodiscard]] float forward(const Tensor& logits, const std::vector<std::int64_t>& labels);

  /// dL/dlogits = (softmax - onehot) / N for the last forward, in an arena
  /// slot.
  [[nodiscard]] Tensor& backward_into(TensorArena& arena) const;

 private:
  Tensor cached_probs_;
  std::vector<std::int64_t> cached_labels_;
};

/// Cross-entropy toward a single target class for every row — the loss used
/// by all trigger reverse-engineering optimizations (Alg. 2, NC, TABOR).
class TargetedCrossEntropy {
 public:
  [[nodiscard]] float forward(const Tensor& logits, std::int64_t target_class);
  [[nodiscard]] Tensor& backward_into(TensorArena& arena) const;

 private:
  Tensor cached_probs_;
  std::int64_t cached_target_ = 0;
};

/// Mean squared error; used for the Latent Backdoor feature alignment.
class MeanSquaredError {
 public:
  [[nodiscard]] float forward(const Tensor& prediction, const Tensor& target);
  [[nodiscard]] Tensor& backward_into(TensorArena& arena) const;

 private:
  Tensor cached_diff_;
};

}  // namespace usb
