#include "nn/conv.h"

#include "nn/init.h"

namespace usb {

Conv2d::Conv2d(Conv2dSpec spec, Rng& rng, bool with_bias)
    : spec_(spec),
      with_bias_(with_bias),
      weight_("conv.weight", Tensor(spec.weight_shape())),
      bias_("conv.bias", Tensor(Shape{with_bias ? spec.out_channels : 0})) {
  const std::int64_t fan_in = (spec.in_channels / spec.groups) * spec.kernel * spec.kernel;
  kaiming_normal(weight_.value, fan_in, rng);
  register_parameter(weight_);
  if (with_bias_) register_parameter(bias_);
}

const Tensor& Conv2d::forward_into(const Tensor& x, TensorArena& arena) const {
  arena.cache(this).first = &x;
  Tensor& y = arena.alloc(Shape{x.dim(0), spec_.out_channels, spec_.out_size(x.dim(2)),
                                spec_.out_size(x.dim(3))});
  conv2d_forward_into(x, weight_.value, bias_.value, spec_, y);
  return y;
}

Tensor& Conv2d::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Tensor& x = *arena.cache(this).first;
  Tensor& dx = arena.alloc(x.shape());
  // A frozen model (the detection hot path) computes dx only: nothing is
  // allocated or accumulated for the weights.
  if (!param_grads_enabled()) {
    conv2d_backward_into(x, weight_.value, grad_out, spec_, /*need_dx=*/true,
                         /*need_dweight=*/false, &dx, nullptr, nullptr);
    return dx;
  }
  Tensor& dweight = arena.alloc(weight_.value.shape());
  Tensor& dbias = arena.alloc(Shape{spec_.out_channels});
  conv2d_backward_into(x, weight_.value, grad_out, spec_, /*need_dx=*/true,
                       /*need_dweight=*/true, &dx, &dweight, &dbias);
  weight_.grad += dweight;
  if (with_bias_) bias_.grad += dbias;
  return dx;
}

}  // namespace usb
