// Layer abstraction with explicit forward/backward.
//
// There is no autograd tape: each Module records what its own backward
// needs during forward and implements the exact gradient. backward_into
// returns the gradient with respect to the module INPUT and accumulates
// gradients into its Parameters. Input gradients are first-class because
// every algorithm in the paper (DeepFool, targeted UAP, NC/TABOR/USB trigger
// optimization) differentiates with respect to images, not just weights.
//
// One pass API: every layer implements only forward_into/backward_into,
// both const, and every pass (training, the attacks' trainers, every scan)
// runs on a TensorArena its caller owns. Outputs live in that arena and so
// does the forward cache (TensorArena::cache(layer)), so a layer keeps no
// per-call state. A frozen module (eval mode, parameter gradients off)
// writes nothing to itself at all: any number of arenas can run passes over
// it concurrently. Training writes only what `mutable` marks:
// Parameter::grad and BatchNorm's running statistics. forward() is a const
// convenience for a one-off pass that no backward follows.
//
// Contract: backward_into must be called on the arena of the forward_into
// whose activations it consumes, with a grad_out shaped like that forward's
// output, and before the arena resets.
//
// One module tree: each constructor registers its children, parameters and
// buffers once (register_child/register_parameter/register_buffer), and
// Module alone walks that registry to collect parameters and state and to
// set the training and parameter-gradient flags. A walk visits a module's
// own parameters, then its own buffers, then its children, each in
// registration order. That order is the checkpoint layout: load_checkpoint
// rejects a file whose tensor order differs from the build's, so reordering
// register_* calls orphans every cached checkpoint. The registry holds raw
// addresses of members, so a Module never moves: copy and move are deleted,
// and a child is either a member of its parent or owned through unique_ptr.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace usb {

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  mutable Tensor grad;  // accumulated by const backward passes

  Parameter() = default;
  Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)), value(std::move(initial)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0F); }
};

/// Named view of a tensor that must be serialized with the model: learnable
/// parameters plus non-learnable buffers (e.g. BatchNorm running stats).
struct StateTensor {
  std::string name;
  Tensor* tensor = nullptr;
};

/// Read-only view of one named state tensor.
struct ConstStateTensor {
  std::string name;
  const Tensor* tensor = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = delete;
  Module& operator=(Module&&) = delete;

  /// Computes the module output into `arena` slots and records what
  /// backward_into needs in arena.cache(this). The input `x` and the
  /// returned reference must stay alive (no arena reset) until the matching
  /// backward_into has run: the cache borrows pointers, it copies nothing.
  [[nodiscard]] virtual const Tensor& forward_into(const Tensor& x,
                                                   TensorArena& arena) const = 0;

  /// Returns dL/dinput in an arena slot given dL/doutput; accumulates
  /// parameter gradients when they are enabled. Returns a mutable reference
  /// so callers can fold extra gradient terms in place (e.g. the SSIM term
  /// of USB's Alg. 2). May be repeated over one forward.
  [[nodiscard]] virtual Tensor& backward_into(const Tensor& grad_out,
                                              TensorArena& arena) const = 0;

  /// A forward on a call-local arena, the output copied out: for one-off
  /// passes (a layer walk, a fixed trigger generator) that no backward
  /// follows.
  [[nodiscard]] Tensor forward(const Tensor& x) const {
    TensorArena arena;
    return forward_into(x, arena);
  }

  /// Appends pointers to the learnable parameters of this subtree.
  void collect_parameters(std::vector<Parameter*>& out);
  void collect_parameters(std::vector<const Parameter*>& out) const;

  /// Appends all tensors to serialize, in checkpoint order: parameters plus
  /// buffers.
  void collect_state(std::vector<StateTensor>& out);
  void collect_state(std::vector<ConstStateTensor>& out) const;

  /// Switches train/eval behaviour of this subtree (BatchNorm is the only
  /// mode-sensitive layer in this library).
  void set_training(bool training);
  [[nodiscard]] bool training() const noexcept { return training_; }

  /// Disables parameter-gradient accumulation in this subtree. Detection
  /// algorithms only need dL/dinput on a frozen model; skipping the dW/db
  /// kernels roughly halves the cost of every backward pass.
  void set_param_grads_enabled(bool enabled);
  [[nodiscard]] bool param_grads_enabled() const noexcept { return param_grads_enabled_; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Convenience: gathers parameters into a fresh vector.
  [[nodiscard]] std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  /// Zeroes all parameter gradients in this subtree.
  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  /// Registration, called once per member from the constructor; the order
  /// of calls is the checkpoint layout (see the file comment).
  void register_child(Module& child) { children_.push_back(&child); }
  void register_parameter(Parameter& parameter) { parameters_.push_back(&parameter); }
  void register_buffer(std::string buffer_name, Tensor& buffer) {
    buffers_.push_back(StateTensor{std::move(buffer_name), &buffer});
  }

 private:
  std::vector<Module*> children_;
  std::vector<Parameter*> parameters_;
  std::vector<StateTensor> buffers_;
  bool training_ = true;
  bool param_grads_enabled_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace usb
