#include "nn/pooling.h"

#include <algorithm>

namespace usb {

const Tensor& MaxPool2d::forward_into(const Tensor& x, TensorArena& arena) const {
  TensorArena::LayerCache& cache = arena.cache(this);
  cache.first = &x;
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), spec_.out_size(x.dim(2)),
                                spec_.out_size(x.dim(3))});
  maxpool2d_forward_into(x, spec_, y, cache.argmax);
  return y;
}

Tensor& MaxPool2d::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const TensorArena::LayerCache& cache = arena.cache(this);
  Tensor& dx = arena.alloc(cache.first->shape());
  maxpool2d_backward_into(grad_out, cache.argmax, cache.first->shape(), dx);
  return dx;
}

const Tensor& AvgPool2d::forward_into(const Tensor& x, TensorArena& arena) const {
  arena.cache(this).first = &x;
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), spec_.out_size(x.dim(2)),
                                spec_.out_size(x.dim(3))});
  avgpool2d_forward_into(x, spec_, y);
  return y;
}

Tensor& AvgPool2d::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Shape& x_shape = arena.cache(this).first->shape();
  Tensor& dx = arena.alloc(x_shape);
  avgpool2d_backward_into(grad_out, x_shape, spec_, dx);
  return dx;
}

const Tensor& GlobalAvgPool::forward_into(const Tensor& x, TensorArena& arena) const {
  arena.cache(this).first = &x;
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), 1, 1});
  global_avgpool_forward_into(x, y);
  return y;
}

Tensor& GlobalAvgPool::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const Shape& x_shape = arena.cache(this).first->shape();
  Tensor& dx = arena.alloc(x_shape);
  global_avgpool_backward_into(grad_out, x_shape, dx);
  return dx;
}

const Tensor& Flatten::forward_into(const Tensor& x, TensorArena& arena) const {
  arena.cache(this).first = &x;
  Tensor& y = arena.alloc(Shape{x.dim(0), x.numel() / x.dim(0)});
  std::copy(x.raw(), x.raw() + x.numel(), y.raw());
  return y;
}

Tensor& Flatten::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  Tensor& dx = arena.alloc(arena.cache(this).first->shape());
  std::copy(grad_out.raw(), grad_out.raw() + grad_out.numel(), dx.raw());
  return dx;
}

}  // namespace usb
