#include "nn/checkpoint.h"

#include <stdexcept>

#include "utils/serialize.h"

namespace usb {
namespace {
constexpr std::uint32_t kMagic = 0x43425355;  // "USBC" little-endian
constexpr std::uint32_t kVersion = 1;
}  // namespace

void save_checkpoint(const Network& network, const std::string& path) {
  BinaryWriter writer;
  writer.write_u32(kMagic);
  writer.write_u32(kVersion);
  writer.write_string(to_string(network.architecture()));
  writer.write_i64(network.in_channels());
  writer.write_i64(network.input_size());
  writer.write_i64(network.num_classes());

  const std::vector<ConstStateTensor> state = network.state_view();
  writer.write_i64(static_cast<std::int64_t>(state.size()));
  for (const ConstStateTensor& entry : state) {
    writer.write_string(entry.name);
    writer.write_floats(entry.tensor->data());
  }
  writer.save(path);
}

Network load_checkpoint(const std::string& path) {
  BinaryReader reader = BinaryReader::from_file(path);
  const std::uint32_t magic = reader.read_u32();
  if (magic != kMagic) {
    throw std::runtime_error("checkpoint: bad magic 0x" + std::to_string(magic) + " (want 0x" +
                             std::to_string(kMagic) + ") in " + path);
  }
  const std::uint32_t version = reader.read_u32();
  if (version != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version " + std::to_string(version) +
                             " (want " + std::to_string(kVersion) + ") in " + path);
  }
  // From here every reader throw (truncation, a bogus length, an unknown
  // architecture string) is re-thrown with the path attached: a store
  // loading many refs must be able to say WHICH file was bad.
  try {
    const std::string arch_name = reader.read_string();
    const Architecture arch = architecture_from_string(arch_name);
    const std::int64_t in_channels = reader.read_i64();
    const std::int64_t input_size = reader.read_i64();
    const std::int64_t num_classes = reader.read_i64();

    // Seed is irrelevant: every weight is overwritten below.
    Network network = make_network(arch, in_channels, input_size, num_classes, /*seed=*/0);
    const std::vector<StateTensor> state = network.state();
    const std::int64_t count = reader.read_i64();
    if (count != static_cast<std::int64_t>(state.size())) {
      throw std::runtime_error("state count mismatch: file has " + std::to_string(count) +
                               ", " + arch_name + " needs " + std::to_string(state.size()));
    }
    for (const StateTensor& entry : state) {
      const std::string name = reader.read_string();
      if (name != entry.name) {
        throw std::runtime_error("state order mismatch: file has '" + name + "' where '" +
                                 entry.name + "' belongs");
      }
      std::vector<float> values = reader.read_floats();
      if (static_cast<std::int64_t>(values.size()) != entry.tensor->numel()) {
        throw std::runtime_error("tensor size mismatch for '" + name + "': file has " +
                                 std::to_string(values.size()) + " floats, tensor holds " +
                                 std::to_string(entry.tensor->numel()));
      }
      std::copy(values.begin(), values.end(), entry.tensor->data().begin());
    }
    return network;
  } catch (const std::exception& error) {
    throw std::runtime_error("checkpoint: " + std::string(error.what()) + " in " + path);
  }
}

Network clone_network(const Network& source) {
  Network copy = make_network(source.architecture(), source.in_channels(), source.input_size(),
                              source.num_classes(), /*seed=*/0);
  const std::vector<ConstStateTensor> src_state = source.state_view();
  const std::vector<StateTensor> dst_state = copy.state();
  if (src_state.size() != dst_state.size()) {
    throw std::runtime_error("clone_network: state layout mismatch");
  }
  for (std::size_t i = 0; i < src_state.size(); ++i) {
    *dst_state[i].tensor = *src_state[i].tensor;
  }
  copy.freeze();
  return copy;
}

std::int64_t network_resident_bytes(const Network& network) {
  std::int64_t total = 0;
  for (const ConstStateTensor& entry : network.state_view()) {
    total += entry.tensor->numel() * static_cast<std::int64_t>(sizeof(float));
  }
  for (const Parameter* parameter : network.parameters_view()) {
    total += parameter->grad.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  return total;
}

}  // namespace usb
