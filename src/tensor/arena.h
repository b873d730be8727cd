// TensorArena: a bump allocator of reusable Tensor slots.
//
// The refinement hot path (thousands of Alg. 2 / NC / TABOR steps, each one
// forward + backward + trigger update) historically heap-allocated a fresh
// Tensor for every op result. The arena replaces that with slot recycling:
// alloc() hands out the next slot in sequence, reset() rewinds the cursor at
// a step boundary, and because consecutive steps request the same shape
// sequence, every slot's storage (Tensor::ensure_shape — grow-never-shrink)
// is reused byte-for-byte. After the first (warm-up) step the arena performs
// ZERO heap allocations — the property tensor_heap_allocations() lets tests
// assert.
//
// Lifetime rules:
//  - a Tensor& from alloc()/zeros() is valid until the NEXT reset() (or the
//    exit of the Scope that covers the alloc); holding it across a reset
//    reads recycled storage;
//  - one arena per running stage / thread — the arena is not synchronized,
//    and sharing one across concurrently-running stages would interleave
//    their slot sequences nondeterministically. A scan (StagedScan) lends
//    each construct, round and finalize of a class's TriggerRefineTask an
//    arena of its own, which the stage's Alg. 1 start, hooks and
//    fooling-rate sweep use too; the next stage on it may be another
//    class's, so a stage reads no slot it did not write;
//  - the slot sequence should be shape-stable across steps for the
//    zero-allocation property; deviations are correct, just not free;
//  - nested phases (e.g. DeepFool iterations inside an Alg. 1 pass) use
//    Scope, which rewinds the cursor on exit so sibling phases recycle the
//    same slots instead of growing the arena.
//
// Contents of alloc() slots are UNSPECIFIED (stale bytes from the previous
// step); kernels writing every element need no clearing, accumulators use
// zeros().
//
// The arena also holds each layer's forward cache (cache()): what a layer's
// backward reads from its latest forward on THIS arena. Layers keep no
// per-call state of their own, so any number of arenas can run passes over
// one frozen network concurrently.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"
#include "utils/memory_budget.h"

namespace usb {

class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Releases this arena's storage high-water from the process MemoryBudget.
  ~TensorArena() {
    if (registered_bytes_ > 0) {
      MemoryBudget::process().release(MemoryBudget::Category::kArenas, registered_bytes_);
    }
  }

  /// Next slot, shaped to `shape`; contents unspecified. The reference is
  /// stable across later alloc() calls (slots live in a deque) and valid
  /// until reset() / enclosing-Scope exit.
  [[nodiscard]] Tensor& alloc(const Shape& shape) {
    Tensor& slot = next_slot(shape);
    return slot;
  }

  /// alloc() + fill(0): for accumulators and scatter targets.
  [[nodiscard]] Tensor& zeros(const Shape& shape) {
    Tensor& slot = next_slot(shape);
    slot.fill(0.0F);
    return slot;
  }

  /// alloc() + a copy of `source`.
  [[nodiscard]] Tensor& copy(const Tensor& source) {
    Tensor& slot = next_slot(source.shape());
    std::copy(source.raw(), source.raw() + source.numel(), slot.raw());
    return slot;
  }

  /// What one layer's backward reads from its latest forward on this arena.
  /// Records survive reset() (the argmax buffer keeps its capacity); their
  /// tensor pointers go stale with the slots they name until the layer's
  /// next forward rewrites them.
  struct LayerCache {
    const Tensor* first = nullptr;     // e.g. the layer's input or output
    const Tensor* second = nullptr;    // a second saved tensor, where needed
    std::vector<std::int64_t> argmax;  // MaxPool2d: flat input index per output
    bool training = false;             // BatchNorm2d: the mode its forward ran in
  };

  /// `layer`'s record, created empty on first use.
  [[nodiscard]] LayerCache& cache(const void* layer) { return caches_[layer]; }

  /// Rewinds to empty, keeping every slot's storage for recycling. Call at
  /// step boundaries; invalidates all outstanding references.
  void reset() noexcept { cursor_ = 0; }

  /// Slots handed out since the last reset().
  [[nodiscard]] std::size_t slots_in_use() const noexcept { return cursor_; }
  /// Slots ever created (the high-water mark of a step's op sequence).
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// RAII cursor rewind for nested phases: allocs made inside the scope are
  /// recycled when it exits (their references die with it).
  class Scope {
   public:
    explicit Scope(TensorArena& arena) noexcept : arena_(arena), saved_(arena.cursor_) {}
    ~Scope() { arena_.cursor_ = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TensorArena& arena_;
    std::size_t saved_;
  };

 private:
  Tensor& next_slot(const Shape& shape) {
    if (cursor_ < slots_.size()) {
      Tensor& slot = slots_[cursor_++];
      slot.ensure_shape(shape);
      track_slot(cursor_ - 1, slot.numel() * static_cast<std::int64_t>(sizeof(float)));
      return slot;
    }
    slots_.emplace_back(shape);
    ++cursor_;
    Tensor& slot = slots_.back();
    track_slot(cursor_ - 1, slot.numel() * static_cast<std::int64_t>(sizeof(float)));
    return slot;
  }

  /// High-water accounting against the process MemoryBudget: a slot's
  /// registered figure only grows (ensure_shape never shrinks storage), so
  /// the steady-state cost is one integer compare per alloc — growth, and
  /// the atomic it pays for, happens only on warm-up steps.
  void track_slot(std::size_t index, std::int64_t bytes) {
    if (slot_bytes_.size() < slots_.size()) slot_bytes_.resize(slots_.size(), 0);
    std::int64_t& tracked = slot_bytes_[index];
    if (bytes > tracked) {
      MemoryBudget::process().add(MemoryBudget::Category::kArenas, bytes - tracked);
      registered_bytes_ += bytes - tracked;
      tracked = bytes;
    }
  }

  std::deque<Tensor> slots_;  // deque: stable references across growth
  std::deque<std::int64_t> slot_bytes_;
  std::unordered_map<const void*, LayerCache> caches_;
  std::size_t cursor_ = 0;
  std::int64_t registered_bytes_ = 0;
};

}  // namespace usb
