#include "nn/squeeze_excite.h"

#include "tensor/elementwise.h"
#include "tensor/tensor_ops.h"

namespace usb {

SqueezeExcite::SqueezeExcite(std::int64_t channels, std::int64_t reduced, Rng& rng)
    : channels_(channels), fc1_(channels, reduced, rng), fc2_(reduced, channels, rng) {
  register_child(fc1_);
  register_child(act_);
  register_child(fc2_);
  register_child(gate_);
}

const Tensor& SqueezeExcite::forward_into(const Tensor& x, TensorArena& arena) const {
  const std::int64_t batch = x.dim(0);
  const std::int64_t spatial = x.dim(2) * x.dim(3);

  Tensor& squeezed = arena.alloc(Shape{batch, channels_, 1, 1});
  global_avgpool_forward_into(x, squeezed);
  squeezed.reshape_in_place(Shape{batch, channels_});
  const Tensor& gates = gate_.forward_into(
      fc2_.forward_into(act_.forward_into(fc1_.forward_into(squeezed, arena), arena), arena),
      arena);

  Tensor& y = arena.alloc(x.shape());
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const std::int64_t offset = (n * channels_ + c) * spatial;
      ew::scale_into(x.raw() + offset, gates.at2(n, c), y.raw() + offset, spatial);
    }
  }
  TensorArena::LayerCache& cache = arena.cache(this);
  cache.first = &x;
  cache.second = &gates;  // (N, C)
  return y;
}

Tensor& SqueezeExcite::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const TensorArena::LayerCache& cache = arena.cache(this);
  const Tensor& x = *cache.first;
  const Tensor& gates = *cache.second;
  const std::int64_t batch = grad_out.dim(0);
  const std::int64_t spatial = grad_out.dim(2) * grad_out.dim(3);

  // d/dgates: sum over spatial of dy * x (scalar double reduction, by the
  // bit-identity contract). d/dx (direct path): dy * gate.
  Tensor& dx = arena.alloc(grad_out.shape());
  Tensor& dgates = arena.alloc(Shape{batch, channels_});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float g = gates.at2(n, c);
      const float* dy_p = grad_out.raw() + (n * channels_ + c) * spatial;
      const float* x_p = x.raw() + (n * channels_ + c) * spatial;
      float* dx_p = dx.raw() + (n * channels_ + c) * spatial;
      double acc = 0.0;
      for (std::int64_t s = 0; s < spatial; ++s) {
        acc += static_cast<double>(dy_p[s]) * x_p[s];
        dx_p[s] = dy_p[s] * g;
      }
      dgates.at2(n, c) = static_cast<float>(acc);
    }
  }

  // Through the gate MLP back to the squeezed vector, then scatter the
  // squeeze (spatial mean) gradient back over the input.
  Tensor& dsqueezed = fc1_.backward_into(
      act_.backward_into(fc2_.backward_into(gate_.backward_into(dgates, arena), arena), arena),
      arena);
  dsqueezed.reshape_in_place(Shape{batch, channels_, 1, 1});
  Tensor& scatter = arena.alloc(x.shape());
  global_avgpool_backward_into(dsqueezed, x.shape(), scatter);
  dx += scatter;
  return dx;
}

namespace {

Conv2dSpec pointwise(std::int64_t in, std::int64_t out) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = 1;
  return spec;
}

Conv2dSpec depthwise3x3(std::int64_t channels, std::int64_t stride) {
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.out_channels = channels;
  spec.kernel = 3;
  spec.stride = stride;
  spec.padding = 1;
  spec.groups = channels;
  return spec;
}

}  // namespace

MBConvBlock::MBConvBlock(std::int64_t in_channels, std::int64_t out_channels, std::int64_t stride,
                         std::int64_t expand_ratio, Rng& rng)
    : has_expand_(expand_ratio > 1),
      has_skip_(stride == 1 && in_channels == out_channels),
      depthwise_(depthwise3x3(in_channels * expand_ratio, stride), rng, /*with_bias=*/false),
      dw_bn_(in_channels * expand_ratio),
      se_(in_channels * expand_ratio, std::max<std::int64_t>(1, in_channels / 4), rng),
      project_(pointwise(in_channels * expand_ratio, out_channels), rng, /*with_bias=*/false),
      project_bn_(out_channels) {
  if (has_expand_) {
    expand_conv_ = std::make_unique<Conv2d>(pointwise(in_channels, in_channels * expand_ratio),
                                            rng, /*with_bias=*/false);
    expand_bn_ = std::make_unique<BatchNorm2d>(in_channels * expand_ratio);
    expand_act_ = std::make_unique<SiLU>();
    register_child(*expand_conv_);
    register_child(*expand_bn_);
    register_child(*expand_act_);
  }
  register_child(depthwise_);
  register_child(dw_bn_);
  register_child(dw_act_);
  register_child(se_);
  register_child(project_);
  register_child(project_bn_);
}

const Tensor& MBConvBlock::forward_into(const Tensor& x, TensorArena& arena) const {
  const Tensor* h = &x;
  if (has_expand_) {
    h = &expand_act_->forward_into(
        expand_bn_->forward_into(expand_conv_->forward_into(*h, arena), arena), arena);
  }
  h = &dw_act_.forward_into(dw_bn_.forward_into(depthwise_.forward_into(*h, arena), arena),
                            arena);
  h = &se_.forward_into(*h, arena);
  const Tensor& projected = project_bn_.forward_into(project_.forward_into(*h, arena), arena);
  if (!has_skip_) return projected;
  Tensor& y = arena.alloc(projected.shape());
  ew::add(projected.raw(), x.raw(), y.raw(), projected.numel());
  return y;
}

Tensor& MBConvBlock::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  Tensor* grad =
      &project_.backward_into(project_bn_.backward_into(grad_out, arena), arena);
  grad = &se_.backward_into(*grad, arena);
  grad = &depthwise_.backward_into(
      dw_bn_.backward_into(dw_act_.backward_into(*grad, arena), arena), arena);
  if (has_expand_) {
    grad = &expand_conv_->backward_into(
        expand_bn_->backward_into(expand_act_->backward_into(*grad, arena), arena), arena);
  }
  if (has_skip_) *grad += grad_out;
  return *grad;
}

}  // namespace usb
