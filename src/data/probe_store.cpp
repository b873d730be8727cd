#include "data/probe_store.h"

#include <cinttypes>
#include <cstdio>

#include "data/synthetic.h"
#include "utils/fault_injection.h"

namespace usb {

std::string ProbeKey::address() const {
  // String concatenation, not a fixed buffer: the address is the store's
  // map key, so truncating a long spec name would silently collapse
  // distinct keys onto one entry (and serve the wrong probe).
  char suffix[96];
  std::snprintf(suffix, sizeof(suffix), "_c%lld_s%lld_k%lld_n%lld_seed%016" PRIx64,
                static_cast<long long>(spec.channels), static_cast<long long>(spec.image_size),
                static_cast<long long>(spec.num_classes), static_cast<long long>(probe_size),
                seed);
  return spec.name + suffix;
}

std::int64_t ProbeData::bytes() const noexcept {
  auto dataset_bytes = [](const Dataset& data) {
    return data.images().numel() * static_cast<std::int64_t>(sizeof(float)) +
           static_cast<std::int64_t>(data.labels().size() * sizeof(std::int64_t));
  };
  std::int64_t total = dataset_bytes(probe);
  for (const Batch& batch : cache.batches()) {
    total += batch.images.numel() * static_cast<std::int64_t>(sizeof(float)) +
             static_cast<std::int64_t>((batch.labels.size() + batch.indices.size()) *
                                       sizeof(std::int64_t));
  }
  return total;
}

std::shared_ptr<const ProbeData> ProbeStore::get_or_create(const ProbeKey& key) {
  return KeyedStore::get_or_create(key.address(), [&key] {
    USB_FAULT_POINT("probe_store.materialize");
    auto data = std::make_shared<ProbeData>();
    data->key = key;
    // Identical to exp/model_zoo's make_probe(spec, probe_size, seed), which
    // data/ cannot call (layering); both are generate_dataset verbatim.
    data->probe = generate_dataset(key.spec, key.probe_size, key.seed);
    data->cache = ProbeBatchCache(data->probe);
    return data;
  });
}

}  // namespace usb
