// Dense float32 tensor with value semantics.
//
// Design notes (scoped to this reproduction):
//  - Contiguous row-major storage only; no views or broadcasting machinery.
//    Layers that need reshapes copy or reinterpret via Shape (free: the
//    buffer is shared size).
//  - Value semantics (vector<float> inside): copies are explicit and
//    deterministic; moves are cheap. Gradient buffers live alongside values
//    in nn::Parameter, not inside Tensor (no autograd tape; each layer
//    implements an exact hand-written backward).
//  - float32 matches the precision regime of the paper's PyTorch models.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.h"

namespace usb {

/// Total heap allocations ever made for Tensor element storage, process
/// wide. The hot-path contract of this library (a TensorArena per running
/// stage + `_into` kernels) is that a steady-state refinement step performs
/// ZERO of these; tests and the alloc-pressure bench assert it by
/// differencing this counter around a warmed-up loop. Monotonic; never
/// reset.
[[nodiscard]] std::uint64_t tensor_heap_allocations() noexcept;

namespace detail {

void count_tensor_allocation() noexcept;

/// std::allocator<float> plus a bump of the global Tensor-allocation
/// counter, so vector growth inside Tensor is observable to the
/// zero-allocation tests without replacing the global allocator.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t count) {
    count_tensor_allocation();
    return std::allocator<T>().allocate(count);
  }
  void deallocate(T* pointer, std::size_t count) noexcept {
    std::allocator<T>().deallocate(pointer, count);
  }

  [[nodiscard]] bool operator==(const CountingAllocator&) const noexcept { return true; }
};

}  // namespace detail

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor adopting an existing buffer; sizes must match.
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] static Tensor zeros(Shape shape);
  [[nodiscard]] static Tensor full(Shape shape, float value);
  [[nodiscard]] static Tensor ones(Shape shape);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::int64_t rank() const noexcept { return shape_.rank(); }
  [[nodiscard]] std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] std::int64_t dim(std::int64_t axis) const noexcept { return shape_[axis]; }

  [[nodiscard]] std::span<float> data() noexcept { return std::span<float>(data_); }
  [[nodiscard]] std::span<const float> data() const noexcept {
    return std::span<const float>(data_);
  }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  /// Flat element access.
  [[nodiscard]] float operator[](std::int64_t index) const noexcept {
    return data_[static_cast<std::size_t>(index)];
  }
  float& operator[](std::int64_t index) noexcept { return data_[static_cast<std::size_t>(index)]; }

  /// Rank-4 NCHW accessors (the dominant layout in this library).
  [[nodiscard]] float at4(std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w) const noexcept {
    return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) noexcept {
    return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Rank-2 accessors.
  [[nodiscard]] float at2(std::int64_t r, std::int64_t c) const noexcept {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float& at2(std::int64_t r, std::int64_t c) noexcept {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  /// Returns a copy reinterpreted under a new shape with equal numel.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;

  /// Reinterprets in place; numel must match. No data movement.
  void reshape_in_place(Shape new_shape);

  /// Re-shapes AND re-sizes in place, reusing existing storage capacity
  /// (grow-never-shrink: shrinking keeps the buffer, growing reallocates
  /// only past the high-water mark). Element values are unspecified after
  /// the call — this is the scratch-reuse primitive behind TensorArena and
  /// the layer caches; callers must overwrite or fill(). A no-op when the
  /// shape already matches.
  void ensure_shape(const Shape& new_shape);

  /// Sets every element to `value`.
  void fill(float value) noexcept;

  // ---- In-place elementwise arithmetic (shapes must match exactly). ----
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(const Tensor& other);  // Hadamard
  Tensor& operator*=(float scalar) noexcept;
  Tensor& operator+=(float scalar) noexcept;

  /// x <- x + alpha * other (axpy).
  void add_scaled(const Tensor& other, float alpha);

  /// Clamps every element into [lo, hi].
  void clamp(float lo, float hi) noexcept;

  // ---- Reductions. ----
  [[nodiscard]] float sum() const noexcept;
  [[nodiscard]] float mean() const noexcept;
  [[nodiscard]] float abs_sum() const noexcept;   // L1 norm
  [[nodiscard]] float sq_sum() const noexcept;    // sum of squares
  [[nodiscard]] float l2_norm() const noexcept;   // sqrt(sq_sum)
  [[nodiscard]] float max() const noexcept;
  [[nodiscard]] float min() const noexcept;
  [[nodiscard]] float abs_max() const noexcept;   // Linf norm
  [[nodiscard]] std::int64_t argmax() const noexcept;

  /// True if shapes and all elements are exactly equal.
  [[nodiscard]] bool equals(const Tensor& other) const noexcept;

 private:
  Shape shape_;
  std::vector<float, detail::CountingAllocator<float>> data_;
};

// ---- Out-of-place arithmetic. ----
[[nodiscard]] Tensor operator+(Tensor lhs, const Tensor& rhs);
[[nodiscard]] Tensor operator-(Tensor lhs, const Tensor& rhs);
[[nodiscard]] Tensor operator*(Tensor lhs, const Tensor& rhs);
[[nodiscard]] Tensor operator*(Tensor lhs, float scalar);
[[nodiscard]] Tensor operator*(float scalar, Tensor rhs);

}  // namespace usb
