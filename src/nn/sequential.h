// Sequential container with ranged forward/backward.
//
// The ranged variants let callers split a network into a feature extractor
// and a classifier head without restructuring it — the Latent Backdoor
// attack trains against intermediate features, and model factories mark the
// feature/head boundary by layer index.
#pragma once

#include "nn/module.h"

namespace usb {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends and registers a layer; returns *this for chaining.
  Sequential& add(ModulePtr layer);

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(layers_.size());
  }
  [[nodiscard]] Module& layer(std::int64_t index) noexcept {
    return *layers_[static_cast<std::size_t>(index)];
  }

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) const override;

  /// Forward through layers [begin, end), on the arena behind forward(). A
  /// range starting at layer 0 starts a new pass; a later range continues
  /// it, so a feature range followed by a head range keeps both ranges'
  /// caches for the backward_range calls that follow.
  [[nodiscard]] Tensor forward_range(const Tensor& x, std::int64_t begin, std::int64_t end);

  /// Backward through layers [begin, end) in reverse; must follow the
  /// matching forward_range.
  [[nodiscard]] Tensor backward_range(const Tensor& grad_out, std::int64_t begin,
                                      std::int64_t end);

  [[nodiscard]] std::string name() const override { return "Sequential"; }

 private:
  void check_range(std::int64_t begin, std::int64_t end, const char* caller) const;
  [[nodiscard]] const Tensor& forward_layers(const Tensor& x, std::int64_t begin,
                                             std::int64_t end, TensorArena& arena) const;
  [[nodiscard]] Tensor& backward_layers(const Tensor& grad_out, std::int64_t begin,
                                        std::int64_t end, TensorArena& arena) const;

  std::vector<ModulePtr> layers_;
};

}  // namespace usb
