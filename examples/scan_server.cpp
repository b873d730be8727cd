// Scan worker process: wire-protocol frames on stdin/stdout.
//
// Usage: scan_server [--steps N] [--store-bytes BYTES] [--hazards]
//
//   --steps N            per-class refinement budget of every method (default 12)
//   --store-bytes BYTES  the worker service's model-store cap (default 0 = unlimited)
//
// Thin wrapper over usb::run_scan_worker (src/service/scan_worker.cpp) — the
// worker loop lives in the library so the WorkerFleet supervisor tests and
// benches drive the exact code this binary runs. Reads WireScanRequest
// frames from stdin until end-of-stream (or SIGTERM = graceful drain),
// answers pings with pongs immediately, and streams WireScanResult frames —
// tagged with each request's id — to stdout AS SCANS COMPLETE. All
// diagnostics go to stderr; stdout carries only frames.
//
// --hazards enables the magic misbehaving methods ("__crash__",
// "__wedge__", "__garble__") used by the fleet fault tests. Never pass it
// outside a test harness.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "service/scan_worker.h"

int main(int argc, char** argv) {
  usb::ScanWorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      options.steps = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--store-bytes") == 0 && i + 1 < argc) {
      options.model_store_max_bytes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--hazards") == 0) {
      options.enable_test_hazards = true;
    } else {
      std::fprintf(stderr, "usage: scan_server [--steps N] [--store-bytes BYTES] [--hazards]\n");
      return 2;
    }
  }
  return usb::run_scan_worker(options);
}
