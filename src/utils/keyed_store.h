// One key-addressed store of immutable shared values: the mechanism behind
// ProbeStore (data/probe_store.h) and ModelStore (service/model_store.h).
// An adapter supplies only its key, its Value (with a `bytes()` resident
// footprint) and its loader; everything below is written once, here:
//
//  - per-key materialization cells: the first lookup of a cold key claims a
//    cell under the store lock and runs the loader OUTSIDE it, so lookups
//    of other keys (and the stat getters) never convoy behind a load.
//    Concurrent lookups of the same cold key share the one load: the
//    loader's caller counts the miss, every racer waiting on the cell
//    counts a hit (the map resolved its key). A loader that throws erases
//    its cell and the exception reaches every waiter, so the next lookup is
//    a fresh miss;
//  - entries are shared_ptr<const Value>; a consumer holding the pointer (a
//    scan in flight) PINS the entry, and clear() or eviction only drops the
//    store's reference;
//  - LRU-by-bytes eviction (max_bytes > 0) trims the store on every lookup,
//    hits included, walking from the least recently used entry and skipping
//    pinned ones — evicting a pinned value would only hide its memory, not
//    reclaim it. A lookup therefore leaves the store over its cap only when
//    every resident entry is pinned, and the first lookup after the pins
//    drop trims it;
//  - resident bytes register with the process MemoryBudget under the
//    adapter's category and return to baseline on eviction, clear() and
//    destruction.
//
// All methods are thread-safe.
#pragma once

#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "utils/memory_budget.h"

namespace usb {

template <typename Value>
class KeyedStore {
 public:
  /// `max_bytes` caps the resident bytes; 0 disables eviction.
  KeyedStore(MemoryBudget::Category category, std::int64_t max_bytes)
      : category_(category), max_bytes_(max_bytes) {}
  ~KeyedStore() { MemoryBudget::process().release(category_, resident_bytes_); }

  KeyedStore(const KeyedStore&) = delete;
  KeyedStore& operator=(const KeyedStore&) = delete;

  /// Returns the shared value for `key`, calling `load()` — which returns a
  /// shared_ptr to a new Value — on a miss. The loader's exception
  /// propagates to its caller and to every racer waiting on the key.
  template <typename Load>
  [[nodiscard]] std::shared_ptr<const Value> get_or_create(const std::string& key, Load&& load) {
    std::shared_ptr<Cell> cell;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++hits_;
        if (it->second.value == nullptr) {
          // Another thread is loading this key right now: wait on its cell
          // OUTSIDE the lock so unrelated keys keep flowing.
          const std::shared_ptr<Cell> pending = it->second.pending;
          lock.unlock();
          return pending->future.get();  // rethrows the loader's failure
        }
        lru_.splice(lru_.begin(), lru_, it->second.lru_position);
        // Copied before the trim, so the entry handed out counts as pinned.
        std::shared_ptr<const Value> value = it->second.value;
        trim_locked();
        return value;
      }
      ++misses_;
      cell = std::make_shared<Cell>();
      cell->future = cell->promise.get_future().share();
      entries_[key].pending = cell;
    }

    try {
      std::shared_ptr<const Value> value = load();
      const std::int64_t bytes = value->bytes();  // unlocked: may walk a whole model
      publish(key, cell, value, bytes);
      cell->promise.set_value(value);
      return value;
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.pending == cell) entries_.erase(it);
      }
      cell->promise.set_exception(std::current_exception());
      throw;
    }
  }

  /// Drops the store's references and releases their budgeted bytes; a
  /// pending cell is dropped too (its loader still hands the value to its
  /// waiters, but the store does not publish it).
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    MemoryBudget::process().release(category_, resident_bytes_);
    resident_bytes_ = 0;
  }

  /// Entries in the map, pending loads included.
  [[nodiscard]] std::int64_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::int64_t>(entries_.size());
  }
  [[nodiscard]] std::int64_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  [[nodiscard]] std::int64_t misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }
  /// Entries dropped by the cap.
  [[nodiscard]] std::int64_t evictions() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
  }
  [[nodiscard]] std::int64_t bytes_resident() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return resident_bytes_;
  }
  [[nodiscard]] std::int64_t max_bytes() const noexcept { return max_bytes_; }

 private:
  /// One in-flight load: the loading thread fulfills the promise (value or
  /// exception) after releasing the store lock; every concurrent same-key
  /// caller waits on a copy of the shared_future.
  struct Cell {
    std::promise<std::shared_ptr<const Value>> promise;
    std::shared_future<std::shared_ptr<const Value>> future;
  };

  struct Entry {
    std::shared_ptr<const Value> value;  // null while loading
    std::int64_t bytes = 0;
    /// Valid only once `value` is set; pending entries are not in lru_ (and
    /// hold no resident bytes), so eviction never sees them.
    std::list<std::string>::iterator lru_position;
    std::shared_ptr<Cell> pending;  // non-null while loading
  };

  /// Makes a finished load resident (LRU front, bytes accounted, store
  /// trimmed) — unless clear() dropped its cell mid-load, in which case the
  /// value reaches only the loader's caller and the cell's waiters.
  void publish(const std::string& key, const std::shared_ptr<Cell>& cell,
               const std::shared_ptr<const Value>& value, std::int64_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.pending != cell) return;
    lru_.push_front(key);
    Entry& entry = it->second;
    entry.pending.reset();
    entry.value = value;
    entry.bytes = bytes;
    entry.lru_position = lru_.begin();
    resident_bytes_ += bytes;
    MemoryBudget::process().add(category_, bytes);
    trim_locked();
  }

  /// Evicts unpinned entries from the LRU tail until the store is back
  /// under max_bytes. use_count() > 1 means a consumer outside the store
  /// still holds the value.
  void trim_locked() {
    if (max_bytes_ <= 0) return;
    auto it = lru_.end();
    while (resident_bytes_ > max_bytes_ && it != lru_.begin()) {
      --it;
      const auto found = entries_.find(*it);
      if (found->second.value.use_count() > 1) continue;
      resident_bytes_ -= found->second.bytes;
      MemoryBudget::process().release(category_, found->second.bytes);
      ++evictions_;
      it = lru_.erase(it);
      entries_.erase(found);
    }
  }

  const MemoryBudget::Category category_;
  const std::int64_t max_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::int64_t resident_bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace usb
