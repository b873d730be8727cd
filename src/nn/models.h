// Network: a classifier with a marked feature/head boundary, plus factories
// for the four architecture families the paper evaluates. Its passes run on
// the caller's arena only (forward_into/backward_into; see nn/module.h); a
// feature/head split is Sequential::forward_layers/backward_layers at
// feature_boundary().
//
// Paper -> repo mapping (scaled for CPU; see README "Paper → repo
// substitutions"):
//   Basic model (Appendix A.7)  -> BasicCnn   (exact: conv(1,16,5) pool
//                                  conv(16,32,5) pool fc(512,512) fc(512,10))
//   ResNet-18                   -> MiniResNet (CIFAR-style residual stages)
//   VGG-16                      -> MiniVgg    (conv-conv-pool stacks)
//   EfficientNet-B0             -> MiniEffNet (MBConv + SE + SiLU stages)
#pragma once

#include <memory>
#include <string>

#include "nn/sequential.h"
#include "utils/rng.h"

namespace usb {

enum class Architecture { kBasicCnn, kMiniResNet, kMiniVgg, kMiniEffNet };

[[nodiscard]] std::string to_string(Architecture arch);
[[nodiscard]] Architecture architecture_from_string(const std::string& text);

/// A trained or trainable classifier. Wraps the layer stack with the
/// metadata needed to reconstruct it from a checkpoint and with
/// feature/head split points for feature-space attacks.
class Network {
 public:
  Network(Architecture arch, std::int64_t in_channels, std::int64_t input_size,
          std::int64_t num_classes, std::unique_ptr<Sequential> layers,
          std::int64_t feature_boundary);

  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  /// The one forward/backward path, on the caller's arena (see
  /// nn/module.h): images (N,C,H,W) in [0,1] -> logits (N,classes), and
  /// dL/dlogits -> dL/dimages, accumulating parameter gradients when they
  /// are enabled. Zero heap allocations in a steady-state loop that resets
  /// the arena at step boundaries, and on a frozen network no write to the
  /// network at all, so concurrent passes on distinct arenas may share it.
  /// `x` and the returned references must outlive the matching backward.
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) const;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_logits, TensorArena& arena) const;

  /// Index of the first head layer of sequential(): layers before it are
  /// the feature extractor. Used by the Latent Backdoor attack.
  [[nodiscard]] std::int64_t feature_boundary() const noexcept { return feature_boundary_; }

  void set_training(bool training) { layers_->set_training(training); }
  /// See Module::set_param_grads_enabled: detection on a frozen model turns
  /// this off to halve backward cost.
  void set_param_grads_enabled(bool enabled) { layers_->set_param_grads_enabled(enabled); }
  /// Eval mode with parameter gradients off: the state in which a pass
  /// writes nothing to the network, so one instance serves every class of
  /// a scan and every concurrent scan. Scan entry points require it.
  /// Returns at once on a frozen network, so a detect() on an instance that
  /// running service scans share writes nothing to it either.
  void freeze() {
    if (frozen()) return;
    set_training(false);
    set_param_grads_enabled(false);
  }
  [[nodiscard]] bool frozen() const noexcept {
    return !layers_->training() && !layers_->param_grads_enabled();
  }
  void zero_grad() { layers_->zero_grad(); }
  [[nodiscard]] std::vector<Parameter*> parameters() { return layers_->parameters(); }
  [[nodiscard]] std::vector<StateTensor> state() {
    std::vector<StateTensor> out;
    layers_->collect_state(out);
    return out;
  }
  /// Read-only counterpart of state(): checkpoint saving, cloning, and
  /// byte accounting only read, so a const Network (e.g. a ModelStore
  /// resident shared by concurrent scans) can serve them.
  [[nodiscard]] std::vector<ConstStateTensor> state_view() const {
    std::vector<ConstStateTensor> out;
    layers_->collect_state(out);
    return out;
  }
  /// Read-only counterpart of parameters().
  [[nodiscard]] std::vector<const Parameter*> parameters_view() const {
    std::vector<const Parameter*> out;
    layers_->collect_parameters(out);
    return out;
  }

  [[nodiscard]] Architecture architecture() const noexcept { return arch_; }
  [[nodiscard]] std::int64_t in_channels() const noexcept { return in_channels_; }
  [[nodiscard]] std::int64_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::int64_t num_classes() const noexcept { return num_classes_; }

  [[nodiscard]] Sequential& sequential() noexcept { return *layers_; }

 private:
  Architecture arch_;
  std::int64_t in_channels_;
  std::int64_t input_size_;
  std::int64_t num_classes_;
  std::unique_ptr<Sequential> layers_;
  std::int64_t feature_boundary_;
};

/// Throws std::invalid_argument naming `caller` unless `model` is frozen —
/// the precondition of every entry point that runs passes on a shared
/// const network.
void require_frozen(const Network& model, const char* caller);

/// Builds an untrained network of the given architecture. `input_size` is
/// the square spatial size (28, 32 or 48 in this repo).
[[nodiscard]] Network make_network(Architecture arch, std::int64_t in_channels,
                                   std::int64_t input_size, std::int64_t num_classes,
                                   std::uint64_t seed);

}  // namespace usb
