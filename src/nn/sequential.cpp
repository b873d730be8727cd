#include "nn/sequential.h"

#include <stdexcept>
#include <string>

namespace usb {

Sequential& Sequential::add(ModulePtr layer) {
  register_child(*layer);
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward_into(const Tensor& x, TensorArena& arena) const {
  return forward_layers(x, 0, size(), arena);
}

Tensor& Sequential::backward_into(const Tensor& grad_out, TensorArena& arena) const {
  return backward_layers(grad_out, 0, size(), arena);
}

void Sequential::check_range(std::int64_t begin, std::int64_t end, const char* caller) const {
  if (begin < 0 || end > size() || begin > end) {
    throw std::out_of_range(std::string("Sequential::") + caller + ": bad range");
  }
}

const Tensor& Sequential::forward_layers(const Tensor& x, std::int64_t begin, std::int64_t end,
                                         TensorArena& arena) const {
  check_range(begin, end, "forward_layers");
  const Tensor* activation = &x;
  for (std::int64_t i = begin; i < end; ++i) {
    activation = &layers_[static_cast<std::size_t>(i)]->forward_into(*activation, arena);
  }
  return *activation;
}

Tensor& Sequential::backward_layers(const Tensor& grad_out, std::int64_t begin,
                                    std::int64_t end, TensorArena& arena) const {
  check_range(begin, end, "backward_layers");
  if (begin == end) return arena.copy(grad_out);
  Tensor* grad = &layers_[static_cast<std::size_t>(end - 1)]->backward_into(grad_out, arena);
  for (std::int64_t i = end - 2; i >= begin; --i) {
    grad = &layers_[static_cast<std::size_t>(i)]->backward_into(*grad, arena);
  }
  return *grad;
}

}  // namespace usb
