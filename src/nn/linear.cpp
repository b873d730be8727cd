#include "nn/linear.h"

#include <algorithm>
#include <stdexcept>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace usb {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("linear.weight", Tensor(Shape{out_features, in_features})),
      bias_("linear.bias", Tensor(Shape{out_features})) {
  kaiming_normal(weight_.value, in_features, rng);
  register_parameter(weight_);
  register_parameter(bias_);
}

const Tensor& Linear::forward_into(const Tensor& x, TensorArena& arena) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Linear: expected (N, " + std::to_string(in_features_) +
                                "), got " + x.shape().to_string());
  }
  // Broadcast the bias into y, then let the GEMM accumulate on top: one
  // fused output pass instead of a separate bias sweep after the matmul.
  const std::int64_t batch = x.dim(0);
  Tensor& y = arena.alloc(Shape{batch, out_features_});
  for (std::int64_t n = 0; n < batch; ++n) {
    std::copy(bias_.value.raw(), bias_.value.raw() + out_features_, y.raw() + n * out_features_);
  }
  gemm(/*transpose_a=*/false, /*transpose_b=*/true, batch, out_features_, in_features_, x.raw(),
       in_features_, weight_.value.raw(), in_features_, y.raw(), out_features_,
       /*accumulate=*/true);
  arena.cache(this).first = &x;
  return y;
}

Tensor& Linear::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  if (param_grads_enabled()) {
    // dW (out,in) = dy^T (out,N) x X (N,in)
    Tensor& dweight = arena.alloc(weight_.value.shape());
    matmul_transpose_a_into(grad_out, *arena.cache(this).first, dweight);
    weight_.grad += dweight;
    const std::int64_t batch = grad_out.dim(0);
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* row = grad_out.raw() + n * out_features_;
      for (std::int64_t o = 0; o < out_features_; ++o) bias_.grad[o] += row[o];
    }
  }
  // dX (N,in) = dy (N,out) x W (out,in)
  Tensor& dx = arena.alloc(Shape{grad_out.dim(0), in_features_});
  matmul_into(grad_out, weight_.value, dx);
  return dx;
}

}  // namespace usb
