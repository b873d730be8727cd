// Versioned binary wire format for out-of-process scan submission.
//
// The seam for sharding scans across worker processes: a client encodes a
// WireScanRequest (model by REFERENCE — zoo spec or checkpoint path — plus
// probe coordinates and scan options), ships it over any byte stream, and a
// server running a DetectionService decodes it, submits, and ships back a
// WireScanResult (terminal status + the full DetectionReport, per-class
// estimates and tensors included). See examples/scan_server.cpp +
// examples/scan_client.cpp for the stdin/stdout pipe pair.
//
// Format: magic "USBW", format version, then length-prefixed typed fields
// (utils/serialize.h primitives, native little-endian). Doubles travel as
// raw IEEE bits, so statistics — including the NaN mask_l1 of a quarantined
// class — round-trip EXACTLY: a report decoded from the wire is
// byte-identical to the one the server produced, and a round-tripped
// request resubmitted locally produces the identical report.
//
// Versioning policy: the version is bumped on ANY layout change; decoders
// accept exactly their own version (no silent forward/backward compat — a
// fleet rolls its workers together). Strictness: decode validates magic,
// version, every length prefix against the remaining bytes (oversized and
// negative lengths throw before any allocation), every enum tag, tensor
// shape/payload consistency, every request value a worker cannot serve
// (check_request()), and that no trailing bytes remain. Corrupt
// input of any kind throws WireError — never UB (fuzz-style truncation
// coverage in tests/test_wire.cpp runs under the ASan/UBSan CI jobs).
//
// Version history:
//   1  PR 9: initial request/result records.
//   2  PR 10: every request/result carries a caller-assigned request id
//      (results can arrive out of submission order, which process-sharded
//      fleets need for re-dispatch), and ping/pong heartbeat records let a
//      supervisor distinguish a wedged worker from a slow scan.
//   3  Requests no longer carry an early-exit override (five fields): early
//      exit is part of the server's detector config, like every other scan
//      parameter. Decoding rejects every value check_request() refuses,
//      the option values among them: a non-finite fair_weight, and a
//      non-finite or out-of-range deadline_seconds or
//      retry_backoff_seconds.
//   4  Requests no longer carry priority, fair_weight or unsheddable: every
//      scan shares a service on one equal-share policy. The options left
//      are deadline_seconds, max_retries and retry_backoff_seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "defenses/detector.h"
#include "service/detection_service.h"
#include "service/model_store.h"

namespace usb::wire {

inline constexpr std::uint32_t kMagic = 0x57425355;  // "USBW" little-endian
inline constexpr std::uint32_t kVersion = 4;

/// Record tags, exposed so stream demultiplexers (the fleet supervisor, the
/// worker loop) can peek_record() a frame and dispatch without trial
/// decoding. A result frame fed to decode_request (or vice versa) is still
/// a clean error, never a misparse.
inline constexpr std::uint32_t kRequestRecord = 1;
inline constexpr std::uint32_t kResultRecord = 2;
inline constexpr std::uint32_t kPingRecord = 3;
inline constexpr std::uint32_t kPongRecord = 4;

/// Any decode-side validation failure (truncation, bad magic/version/tag,
/// oversized length, inconsistent tensor, out-of-range option value,
/// trailing bytes).
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error("wire: " + what) {}
};

/// The out-of-process form of ScanRequest. Models travel by reference only
/// (a live Network* cannot cross a process boundary) and probes by key; the
/// one non-serializable ScanOptions member, the progress callback, stays
/// local to the server.
struct WireScanRequest {
  /// Caller-assigned correlation id, echoed verbatim in the matching
  /// WireScanResult. Workers answer requests as their scans complete — NOT
  /// in submission order — so the id is what lets a router match results
  /// to futures and re-dispatch a dead worker's in-flight requests. 0 is
  /// reserved for "unattributable" (a worker answering a frame it could
  /// not decode far enough to learn the id).
  std::uint64_t request_id = 0;
  ModelRef model_ref;
  ProbeKey probe_key;
  /// Detector selector the server maps to a configured detector ("USB",
  /// "NC", "TABOR" in the examples). The wire ships the NAME, not the
  /// config: a fleet's detector configuration is the server's, versioned
  /// with its binary, so every worker scans identically.
  std::string method;
  /// Serialized subset of ScanOptions: deadline_seconds, max_retries and
  /// retry_backoff_seconds — everything except `progress` (a callback
  /// cannot cross the wire).
  ScanOptions options;
};

/// Throws WireError unless every value of `request` is one a worker can
/// serve: a positive probe_size; dataset specs (the probe's, and a zoo
/// ref's) with 1..16 channels, image_size 1..4096 and 1..65536 classes; a
/// non-empty checkpoint path for a checkpoint ref; and a finite
/// deadline_seconds and retry_backoff_seconds of at most
/// kMaxSpanSeconds (utils/timer.h). decode_request() applies it to every
/// frame, and WorkerFleet::submit() applies it before routing: a worker
/// answers a frame it cannot decode as request 0, which no future waits
/// for, so a request a worker would reject must fail where it was made.
/// It cannot compare the probe's class count with the model's, which the
/// worker loads later; a mismatch resolves the scan kFailed instead.
void check_request(const WireScanRequest& request);

/// The out-of-process form of ScanOutcome: terminal status, error text,
/// retry count, and the full report.
struct WireScanResult {
  /// Echo of WireScanRequest::request_id (0 = unattributable).
  std::uint64_t request_id = 0;
  ScanStatus status = ScanStatus::kQueued;
  std::string error;
  std::int64_t retries = 0;
  DetectionReport report;
};

[[nodiscard]] std::vector<std::uint8_t> encode_request(const WireScanRequest& request);
[[nodiscard]] WireScanRequest decode_request(std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode_result(const WireScanResult& result);
[[nodiscard]] WireScanResult decode_result(std::span<const std::uint8_t> bytes);

/// Heartbeat records. A supervisor pings each worker on a fixed cadence;
/// the worker's frame-reading thread answers with a pong echoing the nonce
/// immediately — never behind a running scan — so heartbeat SILENCE means
/// the worker process is dead or wedged, not merely busy. A slow scan is
/// bounded by its request's deadline_seconds instead. decode_* throw
/// WireError on anything but a well-formed frame of the expected record
/// type.
[[nodiscard]] std::vector<std::uint8_t> encode_ping(std::uint64_t nonce);
[[nodiscard]] std::uint64_t decode_ping(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_pong(std::uint64_t nonce);
[[nodiscard]] std::uint64_t decode_pong(std::span<const std::uint8_t> bytes);

/// Validates the frame header (magic + exact version) and returns its
/// record tag (kRequestRecord/kResultRecord/kPingRecord/kPongRecord)
/// without decoding the body — the dispatch step of a stream demultiplexer.
/// Throws WireError on truncation, bad magic, version mismatch, or an
/// unknown tag.
[[nodiscard]] std::uint32_t peek_record(std::span<const std::uint8_t> bytes);

/// Stream framing for pipes/sockets: a u32 length prefix, then the payload.
/// `max_frame_bytes` bounds what read_frame will accept (a corrupt or
/// hostile length must not drive an unbounded allocation).
///
/// Hardened for real pipes between mutually supervising processes:
///  - reads and writes retry EINTR (a signal must not masquerade as a
///    truncated frame);
///  - a peer that closed its end surfaces as WireError (write side: EPIPE —
///    callers must have SIGPIPE ignored, see ignore_sigpipe(); read side:
///    truncation), never as silent process death;
///  - read_frame takes an optional interrupt flag so a drain signal
///    (SIGTERM in the worker) can stop a BLOCKED reader cleanly: when the
///    flag is observed set, read_frame returns false exactly like a clean
///    end-of-stream instead of throwing on the partial frame.
inline constexpr std::int64_t kDefaultMaxFrameBytes = 256LL * 1024 * 1024;

/// Ignores SIGPIPE process-wide (idempotent). Every process that writes
/// wire frames to a pipe must call this once at startup; otherwise a peer
/// closing early kills the writer with SIGPIPE before write_frame can
/// surface the WireError.
void ignore_sigpipe();

/// Writes one frame; throws WireError on I/O failure (EPIPE from a closed
/// peer included). Retries EINTR internally.
void write_frame(std::FILE* out, std::span<const std::uint8_t> payload);

/// Reads one frame into `payload`. Returns false on clean end-of-stream
/// (EOF before any header byte) or when `interrupt` is set while waiting;
/// throws WireError on a truncated header or payload, or a length past
/// `max_frame_bytes`. Retries EINTR internally (checking `interrupt`
/// between attempts, which is how a signal handler unblocks the read).
[[nodiscard]] bool read_frame(std::FILE* in, std::vector<std::uint8_t>& payload,
                              std::int64_t max_frame_bytes = kDefaultMaxFrameBytes,
                              const std::atomic<bool>* interrupt = nullptr);

}  // namespace usb::wire
