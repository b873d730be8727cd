#include "nn/activations.h"

#include "tensor/elementwise.h"

namespace usb {

const Tensor& ReLU::forward_into(const Tensor& x, TensorArena& arena) const {
  arena.cache(this).first = &x;
  Tensor& y = arena.alloc(x.shape());
  ew::relu_fwd(x.raw(), y.raw(), x.numel());
  return y;
}

Tensor& ReLU::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Tensor& x = *arena.cache(this).first;
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::relu_bwd(x.raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& Sigmoid::forward_into(const Tensor& x, TensorArena& arena) const {
  Tensor& y = arena.alloc(x.shape());
  ew::sigmoid_fwd(x.raw(), y.raw(), x.numel());
  arena.cache(this).first = &y;
  return y;
}

Tensor& Sigmoid::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Tensor& y = *arena.cache(this).first;
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::sigmoid_bwd(y.raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& Tanh::forward_into(const Tensor& x, TensorArena& arena) const {
  Tensor& y = arena.alloc(x.shape());
  ew::tanh_fwd(x.raw(), y.raw(), x.numel());
  arena.cache(this).first = &y;
  return y;
}

Tensor& Tanh::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Tensor& y = *arena.cache(this).first;
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::tanh_bwd(y.raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& SiLU::forward_into(const Tensor& x, TensorArena& arena) const {
  Tensor& sigmoid = arena.alloc(x.shape());
  Tensor& y = arena.alloc(x.shape());
  ew::silu_fwd(x.raw(), sigmoid.raw(), y.raw(), x.numel());
  TensorArena::LayerCache& cache = arena.cache(this);
  cache.first = &x;
  cache.second = &sigmoid;
  return y;
}

Tensor& SiLU::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const TensorArena::LayerCache& cache = arena.cache(this);
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::silu_bwd(cache.second->raw(), cache.first->raw(), grad_out.raw(), dx.raw(),
               grad_out.numel());
  return dx;
}

}  // namespace usb
