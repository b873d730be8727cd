// Read-only mini-batches of a probe set, materialized once and shared by
// every consumer of a scan: the K per-class fooling-rate evaluations, the
// Alg. 1 craft loop, and (through the service's ProbeStore) every scan that
// names the same probe key. Batching matches the historical evaluation loaders
// (sequential order, fixed batch size), so cached results are bit-identical
// to a fresh DataLoader pass.
//
// Lives in data/ (not defenses/) because both the core algorithms (Alg. 1
// UAP crafting) and the scan engine (defenses/scan_plan.h) consume it.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataloader.h"

namespace usb {

/// Batch size of every full-probe evaluation cache: the one a scan builds
/// for its K fooling-rate evaluations and the one each ProbeStore entry
/// carries. One value, so a scan always adopts a store-built cache.
inline constexpr std::int64_t kEvalBatchSize = 128;

class ProbeBatchCache {
 public:
  ProbeBatchCache() = default;
  explicit ProbeBatchCache(const Dataset& probe, std::int64_t batch_size = kEvalBatchSize);

  [[nodiscard]] const std::vector<Batch>& batches() const noexcept { return batches_; }
  [[nodiscard]] std::int64_t total_samples() const noexcept { return total_samples_; }
  [[nodiscard]] std::int64_t batch_size() const noexcept { return batch_size_; }

 private:
  std::vector<Batch> batches_;
  std::int64_t total_samples_ = 0;
  std::int64_t batch_size_ = 0;
};

}  // namespace usb
