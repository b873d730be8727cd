// Failure classification for scan stages.
//
// The retry layer in DetectionService distinguishes transient failures
// (worth re-running the same stage item after a backoff — the probe store
// hiccuped, an allocation failed under load, a detector saw a recoverable
// condition) from permanent ones (a bug or an invalid request, where a
// retry would deterministically fail again). Anything a stage throws that
// derives from ScanError carries that classification explicitly; detectors
// and stores that want a retry raise TransientError. Exceptions outside
// this hierarchy are permanent, with two exceptions made by the service:
// fault::InjectedFault (the fault registry models transient infrastructure
// faults) and std::bad_alloc (retried with backoff, since running scans may
// release memory in the meantime).
#pragma once

#include <stdexcept>
#include <string>

namespace usb {

/// Base class for scan-stage failures carrying a retry classification.
struct ScanError : std::runtime_error {
  ScanError(const std::string& what, bool transient_failure)
      : std::runtime_error(what), transient(transient_failure) {}

  /// Transient failures are re-enqueued with backoff while the scan has
  /// retry budget left (ScanOptions::max_retries); permanent failures
  /// resolve kFailed immediately.
  bool transient = false;
};

/// A failure worth retrying. Detectors raise this from construct/round
/// stages for recoverable conditions; the service raises it for probe
/// materialization failures.
struct TransientError : ScanError {
  explicit TransientError(const std::string& what) : ScanError(what, /*transient_failure=*/true) {}
};

}  // namespace usb
