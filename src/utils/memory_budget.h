// Process-wide accounting of the large allocations the serving stack holds.
//
// Every subsystem that pins multi-megabyte buffers registers them here:
// the resident entries of both keyed stores (ProbeStore datasets and
// ModelStore networks, through utils/keyed_store.h) and TensorArena slot
// storage. A scan never copies its model, so no per-request bytes exist
// beyond these. The budget is a ledger only — it never allocates, frees,
// or refuses anything, and no policy reads it: DetectionService::health()
// reports its total and high water.
//
// All counters are relaxed atomics: registration is on hot-ish paths
// (arena growth, store insertions) and the readers (health snapshots) only
// need a monotonic-ish total, not a linearizable one.
#pragma once

#include <atomic>
#include <cstdint>

namespace usb {

class MemoryBudget {
 public:
  enum class Category : int {
    kProbeData = 0,       // ProbeStore resident datasets
    kArenas = 1,          // TensorArena slot storage (scratch high-water)
    kResidentModels = 2,  // ModelStore resident (shared immutable) networks
  };
  static constexpr int kNumCategories = 3;

  MemoryBudget() = default;
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// The process-wide instance every subsystem registers against.
  static MemoryBudget& process();

  void add(Category category, std::int64_t bytes) noexcept {
    if (bytes <= 0) return;
    by_category_[index(category)].fetch_add(bytes, std::memory_order_relaxed);
    const std::int64_t total = total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (total > seen &&
           !high_water_.compare_exchange_weak(seen, total, std::memory_order_relaxed)) {
    }
  }

  void release(Category category, std::int64_t bytes) noexcept {
    if (bytes <= 0) return;
    by_category_[index(category)].fetch_sub(bytes, std::memory_order_relaxed);
    total_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Total bytes currently registered across all categories.
  [[nodiscard]] std::int64_t bytes() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t bytes(Category category) const noexcept {
    return by_category_[index(category)].load(std::memory_order_relaxed);
  }

  /// Highest total ever registered (never resets).
  [[nodiscard]] std::int64_t high_water_bytes() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  static int index(Category category) noexcept { return static_cast<int>(category); }

  std::atomic<std::int64_t> by_category_[kNumCategories]{};
  std::atomic<std::int64_t> total_{0};
  std::atomic<std::int64_t> high_water_{0};
};

}  // namespace usb
