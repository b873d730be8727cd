// Content-addressed store of probe datasets and their batch caches.
//
// Every probe set in this repository is a pure function of
// (DatasetSpec, probe_size, seed) — generate_dataset() is deterministic —
// so that triple IS the content address: two scans that name the same key
// are guaranteed the same bytes, and the store can hand both the same
// immutable materialization instead of regenerating and re-batching per
// case. This resolves the ROADMAP item "probe datasets are regenerated per
// case and could be content-addressed and cached across cases/scales": the
// experiment harness previously built one ProbeBatchCache per model and
// shared it across the three detectors, but rebuilt the probe for every
// (case, model) pair even when the coordinates matched.
//
// The sharing, pinning, LRU-by-bytes eviction and MemoryBudget accounting
// (category kProbeData) are KeyedStore's (utils/keyed_store.h); this
// adapter supplies the key (ProbeKey::address()), the value (ProbeData) and
// the loader (generate_dataset + ProbeBatchCache).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/probe_cache.h"
#include "utils/keyed_store.h"

namespace usb {

/// The content address of a probe set: the full generation coordinates.
/// Keys compare by value (not by hash) — equal keys are equal datasets.
struct ProbeKey {
  DatasetSpec spec;
  std::int64_t probe_size = 0;
  std::uint64_t seed = 0;

  /// Canonical string form, e.g. "cifar10_c3_s32_k10_n300_seed000000000009e0be";
  /// the store's map key and a stable cache-file-style identifier.
  [[nodiscard]] std::string address() const;

  [[nodiscard]] bool operator==(const ProbeKey& other) const noexcept {
    return spec.name == other.spec.name && spec.channels == other.spec.channels &&
           spec.image_size == other.spec.image_size &&
           spec.num_classes == other.spec.num_classes && probe_size == other.probe_size &&
           seed == other.seed;
  }
};

/// One materialized probe: the dataset plus its evaluation batches, built
/// once and shared read-only by every scan that names the key.
struct ProbeData {
  ProbeKey key;
  Dataset probe;
  ProbeBatchCache cache;

  /// Resident footprint (image/label storage of the dataset and every
  /// cached batch); the unit of the store's max_bytes accounting.
  [[nodiscard]] std::int64_t bytes() const noexcept;
};

struct ProbeStoreOptions {
  /// LRU-by-bytes cap on resident materializations; 0 (default) disables
  /// eviction. Entries held by in-flight consumers are pinned.
  std::int64_t max_bytes = 0;
};

class ProbeStore : private KeyedStore<ProbeData> {
 public:
  explicit ProbeStore(ProbeStoreOptions options = {})
      : KeyedStore(MemoryBudget::Category::kProbeData, options.max_bytes) {}

  /// Returns the shared materialization for `key`, generating it on first
  /// use; the result is identical to make_probe(spec, probe_size, seed) +
  /// ProbeBatchCache(probe).
  [[nodiscard]] std::shared_ptr<const ProbeData> get_or_create(const ProbeKey& key);

  using KeyedStore::bytes_resident;
  using KeyedStore::clear;
  using KeyedStore::evictions;
  using KeyedStore::hits;
  using KeyedStore::max_bytes;
  using KeyedStore::misses;
  using KeyedStore::size;
};

}  // namespace usb
