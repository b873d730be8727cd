#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/elementwise.h"
#include "tensor/tensor_ops.h"

namespace usb {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<std::int64_t>& labels) {
  if (logits.rank() != 2 || logits.dim(0) != static_cast<std::int64_t>(labels.size())) {
    throw std::invalid_argument("SoftmaxCrossEntropy: logits/labels mismatch");
  }
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  for (const std::int64_t label : labels) {
    if (label < 0 || label >= cols) {
      throw std::invalid_argument("SoftmaxCrossEntropy: label out of range");
    }
  }
  softmax_rows_into(logits, cached_probs_);
  cached_labels_ = labels;
  double loss = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float p = cached_probs_[r * cols + labels[static_cast<std::size_t>(r)]];
    loss -= std::log(std::max(p, 1e-12F));
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

Tensor& SoftmaxCrossEntropy::backward_into(TensorArena& arena) const {
  const std::int64_t rows = cached_probs_.dim(0);
  const std::int64_t cols = cached_probs_.dim(1);
  Tensor& grad = arena.alloc(cached_probs_.shape());
  std::copy(cached_probs_.raw(), cached_probs_.raw() + cached_probs_.numel(), grad.raw());
  const float inv_rows = 1.0F / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    grad[r * cols + cached_labels_[static_cast<std::size_t>(r)]] -= 1.0F;
    ew::scale(grad.raw() + r * cols, inv_rows, cols);
  }
  return grad;
}

float TargetedCrossEntropy::forward(const Tensor& logits, std::int64_t target_class) {
  if (logits.rank() != 2 || target_class < 0 || target_class >= logits.dim(1)) {
    throw std::invalid_argument("TargetedCrossEntropy: bad logits or target");
  }
  softmax_rows_into(logits, cached_probs_);
  cached_target_ = target_class;
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  double loss = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    loss -= std::log(std::max(cached_probs_[r * cols + target_class], 1e-12F));
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

Tensor& TargetedCrossEntropy::backward_into(TensorArena& arena) const {
  const std::int64_t rows = cached_probs_.dim(0);
  const std::int64_t cols = cached_probs_.dim(1);
  Tensor& grad = arena.alloc(cached_probs_.shape());
  std::copy(cached_probs_.raw(), cached_probs_.raw() + cached_probs_.numel(), grad.raw());
  const float inv_rows = 1.0F / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    grad[r * cols + cached_target_] -= 1.0F;
    ew::scale(grad.raw() + r * cols, inv_rows, cols);
  }
  return grad;
}

float MeanSquaredError::forward(const Tensor& prediction, const Tensor& target) {
  if (prediction.shape() != target.shape()) {
    throw std::invalid_argument("MeanSquaredError: shape mismatch");
  }
  cached_diff_ = prediction;
  cached_diff_ -= target;
  return cached_diff_.sq_sum() / static_cast<float>(cached_diff_.numel());
}

Tensor& MeanSquaredError::backward_into(TensorArena& arena) const {
  Tensor& grad = arena.alloc(cached_diff_.shape());
  ew::scale_into(cached_diff_.raw(), 2.0F / static_cast<float>(cached_diff_.numel()), grad.raw(),
                 cached_diff_.numel());
  return grad;
}

}  // namespace usb
