// Model checkpointing: serializes architecture metadata plus every state
// tensor (weights and BatchNorm running statistics) so trained victim models
// can be cached across bench runs.
#pragma once

#include <string>

#include "nn/models.h"

namespace usb {

/// Writes `network` to `path`. Format: magic "USBC", version, architecture
/// string, dims, then name-tagged float arrays in state order. Read-only
/// (Network::state_view), so const instances — ModelStore residents — can
/// be checkpointed.
void save_checkpoint(const Network& network, const std::string& path);

/// Rebuilds the network described by the checkpoint and loads its weights.
/// Throws std::runtime_error on format/shape mismatch; every message names
/// the offending path and the mismatching field (a store loading many refs
/// must be able to say WHICH file was bad).
[[nodiscard]] Network load_checkpoint(const std::string& path);

/// Deep-copies a network (architecture + every state tensor) and returns
/// the copy frozen. Scans never copy their model — every class and every
/// concurrent scan share one frozen instance — so this serves callers that
/// need a private copy, such as perfbench's call-by-call replays. The
/// source is only read, so cloning from a shared immutable instance is
/// race-free.
[[nodiscard]] Network clone_network(const Network& source);

/// Bytes a live copy of `network` pins: every state tensor (weights +
/// running statistics) plus parameter gradient buffers. The figure
/// ModelStore registers with MemoryBudget per resident model.
[[nodiscard]] std::int64_t network_resident_bytes(const Network& network);

}  // namespace usb
