#include "nn/optimizer.h"

#include <cmath>

#include "tensor/elementwise.h"

namespace usb {
namespace {

ew::AdamParams adam_params(const AdamConfig& config, std::int64_t t) {
  ew::AdamParams params;
  params.lr = config.lr;
  params.beta1 = config.beta1;
  params.beta2 = config.beta2;
  params.eps = config.eps;
  params.bias1 = 1.0F - std::pow(config.beta1, static_cast<float>(t));
  params.bias2 = 1.0F - std::pow(config.beta2, static_cast<float>(t));
  return params;
}

}  // namespace

Sgd::Sgd(std::vector<Parameter*> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  velocity_.reserve(params_.size());
  for (const Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& param = *params_[i];
    Tensor& vel = velocity_[i];
    const std::int64_t n = param.value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      float g = param.grad[j];
      if (config_.weight_decay != 0.0F) g += config_.weight_decay * param.value[j];
      vel[j] = config_.momentum * vel[j] + g;
      param.value[j] -= config_.lr * vel[j];
    }
  }
}

void AdamState::step(Tensor& value, const Tensor& grad) {
  ++t_;
  ew::adam_update(value.raw(), grad.raw(), m_.raw(), v_.raw(), value.numel(),
                  adam_params(config_, t_));
}

}  // namespace usb
