#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

#include "tensor/elementwise.h"

namespace usb {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("bn.gamma", Tensor::ones(Shape{channels})),
      beta_("bn.beta", Tensor(Shape{channels})),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {
  register_parameter(gamma_);
  register_parameter(beta_);
  register_buffer("bn.running_mean", running_mean_);
  register_buffer("bn.running_var", running_var_);
}

const Tensor& BatchNorm2d::forward_into(const Tensor& x, TensorArena& arena) const {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected NCHW with C=" + std::to_string(channels_));
  }
  const std::int64_t batch = x.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t spatial = height * width;
  const std::int64_t count = batch * spatial;

  // The cache: the normalized input, the per-channel 1/sqrt(var+eps) this
  // forward used, and the mode it ran in.
  Tensor& xhat = arena.alloc(x.shape());
  Tensor& inv_std_c = arena.alloc(Shape{channels_});
  Tensor& y = arena.alloc(x.shape());
  TensorArena::LayerCache& cache = arena.cache(this);
  cache.first = &xhat;
  cache.second = &inv_std_c;
  cache.training = training();

  for (std::int64_t c = 0; c < channels_; ++c) {
    float mean = 0.0F;
    float var = 0.0F;
    if (cache.training) {
      // Batch statistics stay a scalar double reduction: the ascending
      // accumulation order is part of the bit-identity contract.
      double sum = 0.0;
      double sq_sum = 0.0;
      for (std::int64_t n = 0; n < batch; ++n) {
        const float* x_p = x.raw() + (n * channels_ + c) * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          sum += x_p[s];
          sq_sum += static_cast<double>(x_p[s]) * x_p[s];
        }
      }
      mean = static_cast<float>(sum / static_cast<double>(count));
      var = static_cast<float>(sq_sum / static_cast<double>(count) -
                               static_cast<double>(mean) * mean);
      if (var < 0.0F) var = 0.0F;  // numerical floor
      running_mean_[c] = (1.0F - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1.0F - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = 1.0F / std::sqrt(var + eps_);
    inv_std_c[c] = inv_std;
    for (std::int64_t n = 0; n < batch; ++n) {
      const std::int64_t offset = (n * channels_ + c) * spatial;
      ew::bn_fwd(x.raw() + offset, xhat.raw() + offset, y.raw() + offset, mean, inv_std,
                 gamma_.value[c], beta_.value[c], spatial);
    }
  }
  return y;
}

Tensor& BatchNorm2d::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  const TensorArena::LayerCache& cache = arena.cache(this);
  const Tensor& xhat = *cache.first;
  const Tensor& inv_std_c = *cache.second;
  const std::int64_t batch = grad_out.dim(0);
  const std::int64_t spatial = grad_out.dim(2) * grad_out.dim(3);
  const std::int64_t count = batch * spatial;
  Tensor& dx = arena.alloc(grad_out.shape());

  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv_std = inv_std_c[c];
    const float g = gamma_.value[c];
    // The reductions feed both the parameter gradients and (in training
    // mode) the dx correction terms; eval-mode detection with parameter
    // gradients disabled needs neither. Scalar double accumulation by the
    // bit-identity contract.
    const bool need_sums = param_grads_enabled() || cache.training;
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    if (need_sums) {
      for (std::int64_t n = 0; n < batch; ++n) {
        const float* dy_p = grad_out.raw() + (n * channels_ + c) * spatial;
        const float* xhat_p = xhat.raw() + (n * channels_ + c) * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          sum_dy += dy_p[s];
          sum_dy_xhat += static_cast<double>(dy_p[s]) * xhat_p[s];
        }
      }
    }
    if (param_grads_enabled()) {
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);
    }

    if (cache.training) {
      // Batch statistics participated in the forward, so their dependence on
      // x contributes the two correction terms.
      const auto mean_dy = static_cast<float>(sum_dy / static_cast<double>(count));
      const auto mean_dy_xhat = static_cast<float>(sum_dy_xhat / static_cast<double>(count));
      for (std::int64_t n = 0; n < batch; ++n) {
        const std::int64_t offset = (n * channels_ + c) * spatial;
        ew::bn_bwd_train(grad_out.raw() + offset, xhat.raw() + offset, dx.raw() + offset,
                         g * inv_std, mean_dy, mean_dy_xhat, spatial);
      }
    } else {
      // Running stats are constants: dx = dy * gamma / sqrt(var+eps).
      const float scale = g * inv_std;
      for (std::int64_t n = 0; n < batch; ++n) {
        const std::int64_t offset = (n * channels_ + c) * spatial;
        ew::scale_into(grad_out.raw() + offset, scale, dx.raw() + offset, spatial);
      }
    }
  }
  return dx;
}

}  // namespace usb
