// Key-addressed store of resident victim models, the model-side equivalent
// of data/probe_store.h.
//
// A ScanRequest names its model either as a shared frozen network the
// caller holds or by REFERENCE (a zoo spec or a checkpoint path). The
// fleet-triage scenario — many requests scanning the same uploaded
// checkpoint, or a zoo population re-scanned by several methods — wants the
// second: the store loads the model once, freezes it, and every concurrent
// scan shares that one resident instance. Sharing is sound because a pass
// over a frozen network writes nothing to it: every class task and the USB
// shared prefix keep their forward caches in their own TensorArena
// (nn/module.h). Reports stay bit-identical to detect() on the caller's own
// network: forward is a pure function of (weights, input).
//
// The sharing, pinning, LRU-by-bytes eviction and MemoryBudget accounting
// (category kResidentModels) are KeyedStore's (utils/keyed_store.h), the
// same implementation ProbeStore adapts; this adapter supplies the key
// (ModelRef::key()), the value (ModelData) and the loader (load_checkpoint
// or train_or_load).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "exp/model_zoo.h"
#include "nn/models.h"
#include "utils/keyed_store.h"

namespace usb {

/// Names a model without holding it live. Two forms:
///  - checkpoint: an on-disk file produced by save_checkpoint() — the
///    "uploaded model" form; the key is the path itself.
///  - zoo: a ModelCaseSpec resolved through exp/model_zoo's train_or_load()
///    (cache hit or deterministic training); the key is spec.cache_key().
struct ModelRef {
  std::string checkpoint_path;        // non-empty for the checkpoint form
  std::optional<ModelCaseSpec> zoo;   // engaged for the zoo form

  [[nodiscard]] static ModelRef from_checkpoint(std::string path) {
    ModelRef ref;
    ref.checkpoint_path = std::move(path);
    return ref;
  }
  [[nodiscard]] static ModelRef from_zoo(ModelCaseSpec spec) {
    ModelRef ref;
    ref.zoo = std::move(spec);
    return ref;
  }

  /// Exactly one form set.
  [[nodiscard]] bool valid() const noexcept {
    return checkpoint_path.empty() == zoo.has_value();
  }

  /// The store's map key: "ckpt:<path>" or "zoo:<cache_key>".
  [[nodiscard]] std::string key() const;
};

/// One resident model: loaded once and frozen, then shared read-only by
/// every scan that names the key. Scans run their passes on it through the
/// const forward_into/backward_into path, each on its own arena.
struct ModelData {
  std::string key;
  Network network;

  ModelData(std::string store_key, Network net)
      : key(std::move(store_key)), network(std::move(net)) {}

  /// network_resident_bytes; the unit of max_bytes accounting.
  [[nodiscard]] std::int64_t bytes() const;
};

struct ModelStoreOptions {
  /// LRU-by-bytes cap on resident models; 0 (default) disables eviction.
  /// Entries held by in-flight consumers are pinned and never evicted.
  std::int64_t max_bytes = 0;
};

class ModelStore : private KeyedStore<ModelData> {
 public:
  explicit ModelStore(ModelStoreOptions options = {})
      : KeyedStore(MemoryBudget::Category::kResidentModels, options.max_bytes) {}

  /// Returns the shared resident model for `ref`, loading it on first use
  /// (load_checkpoint for the checkpoint form, train_or_load for the zoo
  /// form). Throws std::invalid_argument on an invalid ref; load failures
  /// propagate (and reach every waiter on the key).
  [[nodiscard]] std::shared_ptr<const ModelData> get_or_create(const ModelRef& ref);

  using KeyedStore::bytes_resident;
  using KeyedStore::clear;
  using KeyedStore::evictions;
  using KeyedStore::hits;
  using KeyedStore::max_bytes;
  using KeyedStore::misses;
  using KeyedStore::size;
};

}  // namespace usb
