// The scan worker process loop: one DetectionService driven by wire frames.
//
// run_scan_worker() is the body of examples/scan_server — in the library so
// the WorkerFleet tests and benches exercise the exact code the shipped
// binary runs, and so the worker side of the protocol has one home. The
// loop reads frames from stdin until end-of-stream (or SIGTERM — see below),
// answers ping frames with pongs IMMEDIATELY from the reading thread (so
// heartbeat silence observed by a supervisor means the process is dead or
// wedged, never merely busy scanning), submits every request to the service
// as it arrives, and streams result frames — tagged with the request id —
// back AS SCANS COMPLETE, not in submission order.
//
// Failure handling:
//  - a frame that fails to decode, or names an unknown method, gets a
//    kFailed result in reply (request id 0 when the decode died before the
//    id could be read) — one bad payload never desyncs the stream;
//  - a peer that closes the result stream early surfaces as a WireError
//    (SIGPIPE is ignored); the worker logs it and exits 1 instead of dying
//    silently mid-write;
//  - SIGTERM is a GRACEFUL DRAIN: stop reading new requests (the handler
//    interrupts even a reader blocked on an idle pipe), finish every
//    in-flight scan, flush their result frames, exit 0. This is the first
//    rung of a supervisor's shutdown escalation (EOF/SIGTERM -> SIGKILL).
#pragma once

#include <cstdint>
#include <string>

#include "defenses/detector.h"

namespace usb {

struct ScanWorkerOptions {
  /// Per-class refinement budget handed to make_wire_detector. The detector
  /// CONFIGURATION lives on the worker, versioned with its binary — the
  /// wire ships only the method name, so every worker of a fleet scans
  /// identically.
  std::int64_t steps = 12;
  /// The worker service's model-store cap, a deployment setting sized to
  /// the worker's box (scan_server --store-bytes;
  /// DetectionServiceConfig::model_store_max_bytes; 0 = unlimited).
  std::int64_t model_store_max_bytes = 0;
  /// Accepts the magic hazard methods ("__crash__", "__wedge__",
  /// "__garble__") that make the worker misbehave on purpose — the fault
  /// harness of the fleet tests (a real SIGABRT mid-scan, real heartbeat
  /// silence, a real partial frame from a dying process). NEVER enable
  /// outside tests: a hazard request kills or wedges the whole worker.
  bool enable_test_hazards = false;
};

/// Maps a wire method name to a demo-scale configured detector ("USB",
/// "NC", "TABOR"); nullptr for unknown names. `steps` bounds the per-class
/// refinement; the USB crafting knobs shrink alongside it when small.
/// Shared by the worker loop, the fleet example, and the tests so the
/// "byte-identical to detect()" comparisons construct the same detector
/// the worker ran.
[[nodiscard]] DetectorPtr make_wire_detector(const std::string& method, std::int64_t steps);

/// Runs the worker loop until end-of-stream or SIGTERM drain; returns the
/// process exit code (0 = every accepted frame was answered and flushed).
/// Installs SIGTERM/SIGPIPE handling on the calling thread, which must be
/// the process main thread.
[[nodiscard]] int run_scan_worker(const ScanWorkerOptions& options);

}  // namespace usb
