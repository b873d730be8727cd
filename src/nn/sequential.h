// Sequential container with ranged forward/backward.
//
// The ranged forms let callers split a network into a feature extractor and
// a classifier head without restructuring it — the Latent Backdoor attack
// trains against intermediate features, and model factories mark the
// feature/head boundary by layer index (Network::feature_boundary()). Like
// every pass, a ranged pass runs on the caller's arena: a feature range
// followed by a head range on one arena keeps both ranges' caches for the
// backward_layers calls that follow.
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

  /// Forward through layers [begin, end) on `arena`. Throws
  /// std::out_of_range unless 0 <= begin <= end <= size().
  [[nodiscard]] const Tensor& forward_layers(const Tensor& x, std::int64_t begin,
                                             std::int64_t end, TensorArena& arena) const;

  /// Backward through layers [begin, end) in reverse, over the matching
  /// forward_layers on the same arena. An empty range is the identity (a
  /// copy of grad_out in an arena slot). Same range check.
  [[nodiscard]] Tensor& backward_layers(const Tensor& grad_out, std::int64_t begin,
                                        std::int64_t end, TensorArena& arena) const;

  [[nodiscard]] std::string name() const override { return "Sequential"; }

 private:
  void check_range(std::int64_t begin, std::int64_t end, const char* caller) const;

  std::vector<ModulePtr> layers_;
};

}  // namespace usb
