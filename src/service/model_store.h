// Key-addressed store of resident victim models, the model-side equivalent
// of data/probe_store.h.
//
// A ScanRequest names its model either as a shared frozen network the
// caller holds or by REFERENCE (a checkpoint path). The fleet-triage
// scenario — many requests scanning the same uploaded checkpoint, or one
// population re-scanned by several methods — wants the second: the store
// loads the model once, freezes it, and every concurrent scan shares that
// one resident instance. Sharing is sound because a pass over a frozen
// network writes nothing to it: every class task and the USB shared prefix
// keep their forward caches in their own TensorArena (nn/module.h).
// Reports stay bit-identical to detect() on the caller's own network:
// forward is a pure function of (weights, input).
//
// The sharing, pinning, LRU-by-bytes eviction and MemoryBudget accounting
// (category kResidentModels) are KeyedStore's (utils/keyed_store.h), the
// same implementation ProbeStore adapts; this adapter supplies the key
// (ModelRef::key()), the value (ModelData) and the loader
// (load_checkpoint).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nn/models.h"
#include "utils/keyed_store.h"

namespace usb {

/// Names a model without holding it live: an on-disk checkpoint produced by
/// save_checkpoint() — the "uploaded model". A model a program trains
/// (the zoo's victims included) is scanned by saving it to a checkpoint
/// first, or by submitting the frozen network itself.
struct ModelRef {
  std::string checkpoint_path;  // must be non-empty

  [[nodiscard]] static ModelRef from_checkpoint(std::string path) {
    ModelRef ref;
    ref.checkpoint_path = std::move(path);
    return ref;
  }

  /// The store's map key: "ckpt:<path>".
  [[nodiscard]] std::string key() const { return "ckpt:" + checkpoint_path; }
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

  /// Returns the shared resident model for `ref`, loading it with
  /// load_checkpoint on first use. Throws std::invalid_argument on an empty
  /// checkpoint path; load failures propagate (and reach every waiter on
  /// the key).
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
