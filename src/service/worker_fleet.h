// Crash-resilient process-sharded scan fleet.
//
// WorkerFleet is a SUPERVISOR: it fork/execs N scan worker processes
// (examples/scan_server, whose loop is src/service/scan_worker), connects
// each by a pipe pair speaking the PR 9/10 wire protocol, and turns
// submissions into futures the way DetectionService does — except the scans
// run in OTHER PROCESSES, so a detector that segfaults, aborts, leaks until
// the OOM killer fires, or wedges a thread takes down one worker, never the
// fleet (the whole point: process isolation is the containment boundary the
// in-process fault harness of PR 8 cannot give).
//
// Supervision tree:
//
//   WorkerFleet (supervisor process)
//     ├── monitor thread     pings workers, declares heartbeat-silent ones
//     │                      dead, reaps corpses, respawns with backoff,
//     │                      routes queued requests (least-loaded, capped)
//     ├── worker[0] reader ──┐ one thread per worker: demultiplexes result
//     ├── worker[1] reader ──┤ and pong frames, first observer of EOF and
//     │   ...                │ truncated frames
//     └── worker[N-1] reader ┘
//          │ pipes │
//     scan_server processes (each: DetectionService + scan_worker loop)
//
// Failure semantics (how a worker death is detected, and what happens):
//   pipe EOF / truncated frame  reader thread sees the worker's stdout
//                               close or a frame die mid-payload (a process
//                               killed mid-write) -> worker declared dead
//   write failure (EPIPE)       router's request write hits a closed stdin
//                               -> worker declared dead
//   heartbeat silence           monitor pings every heartbeat_interval; no
//                               pong within heartbeat_timeout -> the worker
//                               is wedged (pongs come from its reading
//                               thread, never behind a scan) -> SIGKILL
//   any of the above            corpse reaped (waitpid; exit detail
//                               recorded), in-flight requests re-dispatched
//                               to survivors — safe because reports are
//                               deterministic — and the worker respawned
//                               with exponential backoff
//   poison request              a request whose worker died under it
//                               twice is quarantined: resolved kFailed
//                               naming the workers it killed and how they
//                               died, NOT re-dispatched a third time to
//                               take down the whole fleet
//
// Shutdown is a graceful drain with bounded escalation: stop routing, close
// every worker's stdin (EOF = drain: finish in-flight, flush, exit 0), wait
// drain_wait_seconds, SIGTERM stragglers (the worker's own drain signal),
// wait sigterm_wait_seconds, SIGKILL what remains. Requests still
// unresolved resolve kCancelled("fleet shutdown").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/detection_service.h"
#include "service/wire.h"

namespace usb {

namespace detail {
struct FleetRequestState;
}  // namespace detail

struct FleetConfig {
  /// argv of the worker binary (argv[0] = path). The fleet appends nothing:
  /// pass --steps/--hazards here. Every worker runs the same command, so
  /// every worker scans identically (re-dispatch depends on it).
  std::vector<std::string> worker_argv;
  std::int64_t num_workers = 2;
  /// Per-worker cap on dispatched-but-unanswered requests. Routing picks
  /// the least-loaded worker below its cap; when all are at cap, requests
  /// queue in the supervisor.
  std::int64_t max_in_flight_per_worker = 4;
  /// Heartbeat cadence and patience. A worker that answers no ping for
  /// heartbeat_timeout_seconds is declared wedged and killed. Pongs are
  /// answered from the worker's frame-reading thread, so a long scan never
  /// looks like silence. A slow scan is bounded by its request's
  /// deadline_seconds.
  double heartbeat_interval_seconds = 0.25;
  double heartbeat_timeout_seconds = 5.0;
  /// Respawn backoff: first respawn after a death waits
  /// respawn_backoff_initial_seconds, doubling per consecutive failure of
  /// that slot up to respawn_backoff_max_seconds; reset by the slot
  /// delivering a result.
  double respawn_backoff_initial_seconds = 0.05;
  double respawn_backoff_max_seconds = 2.0;
  /// Shutdown escalation budget per rung (EOF drain, then SIGTERM).
  double drain_wait_seconds = 10.0;
  double sigterm_wait_seconds = 2.0;
};

/// Terminal result of a fleet submission: the worker's WireScanResult fields
/// plus the fleet's own dispatch history for the request.
struct FleetOutcome {
  ScanStatus status = ScanStatus::kQueued;
  std::string error;
  DetectionReport report;
  /// How many times the request was written to a worker (1 = no failure;
  /// 2+ = re-dispatched after worker deaths).
  std::int64_t dispatches = 0;
  /// How many workers died while this request was in flight on them.
  std::int64_t worker_kills = 0;
};

/// Future for one fleet submission; same shape as ScanHandle. Copyable and
/// cheap; outcomes stay alive as long as any handle does.
class FleetHandle {
 public:
  /// An empty handle, for a slot filled by a later submit; its methods
  /// throw std::logic_error.
  FleetHandle() = default;

  [[nodiscard]] ScanStatus poll() const;
  /// Blocks until terminal (worker answered, request quarantined, or fleet
  /// shut down). Never throws on scan failure — inspect outcome.status. The
  /// outcome lives as long as this handle, so a temporary handle returns a
  /// copy.
  const FleetOutcome& wait() const&;
  FleetOutcome wait() &&;
  /// Blocks at most `seconds` (clamped by steady_span()); returns the status
  /// observed.
  ScanStatus wait_for(double seconds) const;

 private:
  friend class WorkerFleet;
  explicit FleetHandle(std::shared_ptr<detail::FleetRequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::FleetRequestState> state_;
};

/// One worker slot's gauges for FleetHealth.
struct WorkerHealth {
  std::int64_t index = 0;
  std::int64_t pid = -1;        // -1 while down/backing off
  bool alive = false;
  std::int64_t in_flight = 0;   // dispatched, unanswered
  std::int64_t restarts = 0;    // respawns of this slot (post-death spawns)
  double last_heartbeat_age_seconds = 0.0;  // since last pong (or spawn)
  /// How the last corpse died ("signal 9 (killed)", "exit code 1"); empty
  /// until the slot's first death.
  std::string last_death;
};

/// Point-in-time snapshot of the fleet, ServiceHealth-style.
struct FleetHealth {
  std::vector<WorkerHealth> workers;
  std::int64_t queued_requests = 0;      // accepted, not yet dispatched
  std::int64_t in_flight_requests = 0;   // dispatched, unanswered
  std::int64_t requests_submitted = 0;
  std::int64_t requests_completed = 0;   // resolved by a worker result
  std::int64_t requests_quarantined = 0; // poison: resolved kFailed
  std::int64_t respawns_total = 0;       // post-death spawns, all slots
  std::int64_t redispatches_total = 0;   // re-routes after worker deaths
  /// Every backoff delay applied before a respawn attempt, in order — the
  /// observable the backoff-schedule tests assert doubling on.
  std::vector<double> respawn_backoffs_seconds;
};

class WorkerFleet {
 public:
  /// Spawns the initial workers (synchronously — returns with every slot
  /// either alive or already in its backoff/retry cycle) and starts the
  /// monitor. Throws std::runtime_error when config is unusable (empty
  /// worker_argv, num_workers < 1).
  explicit WorkerFleet(FleetConfig config);
  /// shutdown() if the caller has not.
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Accepts a request for dispatch (request_id is ASSIGNED BY THE FLEET —
  /// any caller-set value is overwritten) and returns its future. A request
  /// that wire::check_request() rejects resolves immediately as kFailed;
  /// after shutdown() begins, it resolves immediately as kCancelled.
  [[nodiscard]] FleetHandle submit(wire::WireScanRequest request);

  /// Graceful drain with bounded escalation (see file comment). Idempotent;
  /// safe to call while submissions race (they resolve kCancelled).
  void shutdown();

  [[nodiscard]] FleetHealth health() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace usb
