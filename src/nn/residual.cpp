#include "nn/residual.h"

#include "tensor/elementwise.h"

namespace usb {
namespace {

Conv2dSpec conv3x3(std::int64_t in, std::int64_t out, std::int64_t stride) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = 3;
  spec.stride = stride;
  spec.padding = 1;
  return spec;
}

Conv2dSpec conv1x1(std::int64_t in, std::int64_t out, std::int64_t stride) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = 1;
  spec.stride = stride;
  spec.padding = 0;
  return spec;
}

}  // namespace

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                             std::int64_t stride, Rng& rng)
    : conv1_(conv3x3(in_channels, out_channels, stride), rng, /*with_bias=*/false),
      bn1_(out_channels),
      conv2_(conv3x3(out_channels, out_channels, 1), rng, /*with_bias=*/false),
      bn2_(out_channels),
      has_projection_(stride != 1 || in_channels != out_channels) {
  register_child(conv1_);
  register_child(bn1_);
  register_child(conv2_);
  register_child(bn2_);
  if (has_projection_) {
    proj_conv_ = std::make_unique<Conv2d>(conv1x1(in_channels, out_channels, stride), rng,
                                          /*with_bias=*/false);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
    register_child(*proj_conv_);
    register_child(*proj_bn_);
  }
}

const Tensor& ResidualBlock::forward_into(const Tensor& x, TensorArena& arena) const {
  const Tensor& pre1 = bn1_.forward_into(conv1_.forward_into(x, arena), arena);
  Tensor& act1 = arena.alloc(pre1.shape());
  ew::relu_fwd(pre1.raw(), act1.raw(), pre1.numel());

  const Tensor& main = bn2_.forward_into(conv2_.forward_into(act1, arena), arena);
  const Tensor& shortcut =
      has_projection_ ? proj_bn_->forward_into(proj_conv_->forward_into(x, arena), arena) : x;
  Tensor& sum = arena.alloc(main.shape());
  ew::add(main.raw(), shortcut.raw(), sum.raw(), main.numel());
  Tensor& y = arena.alloc(sum.shape());
  ew::relu_fwd(sum.raw(), y.raw(), sum.numel());

  // The two ReLUs' pre-activations: the inner one's, then the output's.
  TensorArena::LayerCache& cache = arena.cache(this);
  cache.first = &pre1;
  cache.second = &sum;
  return y;
}

Tensor& ResidualBlock::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const TensorArena::LayerCache& cache = arena.cache(this);
  const Tensor& pre1 = *cache.first;
  const Tensor& sum = *cache.second;

  // Through the output ReLU.
  Tensor& grad_sum = arena.alloc(grad_out.shape());
  ew::relu_bwd(sum.raw(), grad_out.raw(), grad_sum.raw(), grad_out.numel());

  // Main path.
  const Tensor& grad_pre = conv2_.backward_into(bn2_.backward_into(grad_sum, arena), arena);
  Tensor& grad_main = arena.alloc(grad_pre.shape());
  ew::relu_bwd(pre1.raw(), grad_pre.raw(), grad_main.raw(), grad_pre.numel());
  Tensor& dx = conv1_.backward_into(bn1_.backward_into(grad_main, arena), arena);

  // Shortcut path.
  if (has_projection_) {
    dx += proj_conv_->backward_into(proj_bn_->backward_into(grad_sum, arena), arena);
  } else {
    dx += grad_sum;
  }
  return dx;
}

}  // namespace usb
