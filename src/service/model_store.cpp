#include "service/model_store.h"

#include <stdexcept>
#include <utility>

#include "nn/checkpoint.h"
#include "utils/fault_injection.h"

namespace usb {

std::int64_t ModelData::bytes() const { return network_resident_bytes(network); }

std::shared_ptr<const ModelData> ModelStore::get_or_create(const ModelRef& ref) {
  if (ref.checkpoint_path.empty()) {
    throw std::invalid_argument("ModelRef: checkpoint_path must be set");
  }
  const std::string key = ref.key();
  return KeyedStore::get_or_create(key, [&ref, &key] {
    USB_FAULT_POINT("model_store.load");
    Network network = load_checkpoint(ref.checkpoint_path);
    // Frozen: concurrent scans run passes on the resident, which writes
    // nothing to it only in this state (StagedScan checks).
    network.freeze();
    return std::make_shared<ModelData>(key, std::move(network));
  });
}

}  // namespace usb
