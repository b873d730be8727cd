// WorkerFleet: crash-resilience of the process-sharded scan fleet.
//
// These tests fork/exec REAL scan_server worker processes (the binary built
// from this tree, found via USB_SCAN_SERVER — set by ctest — or
// ./scan_server) and then hurt them: SIGKILL mid-scan, a request that
// abort()s its worker, a worker that dies mid-write leaving a truncated
// frame, a wedged reader that goes heartbeat-silent. The contracts:
//
//  - a killed worker's in-flight scans re-dispatch to survivors and come
//    back BYTE-IDENTICAL to the same scan run in-process (re-dispatch is
//    safe because reports are deterministic);
//  - a request that kills its worker max_request_kills times is quarantined
//    (kFailed naming the worker and signal), not re-dispatched forever;
//  - respawns follow the exponential backoff schedule, observable in
//    FleetHealth::respawn_backoffs_seconds, and reset on delivered results;
//  - shutdown under load terminates EVERY request (done or cancelled,
//    never wedged);
//  - a truncated frame from a dying worker is worker death, never a wedged
//    or crashed router.
//
// Supervisor-side failure paths that no real process death can reach on
// demand are driven through the fleet.spawn / fleet.route / fleet.heartbeat
// fault-injection points.
#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "nn/checkpoint.h"
#include "service/detection_service.h"
#include "service/scan_worker.h"
#include "service/worker_fleet.h"
#include "utils/fault_injection.h"

namespace usb {
namespace {

constexpr std::int64_t kSteps = 4;

std::string server_path() {
  const char* env = std::getenv("USB_SCAN_SERVER");
  return env != nullptr ? env : "./scan_server";
}

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "fleet-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = 4;
  return spec;
}

std::string make_checkpoint() {
  static const std::string path = [] {
    const std::string file = testing::TempDir() + "fleet_victim.ckpt";
    const DatasetSpec spec = tiny_spec();
    Network net = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                               spec.num_classes, /*seed=*/91);
    save_checkpoint(net, file);
    return file;
  }();
  return path;
}

wire::WireScanRequest make_request(const std::string& method, std::uint64_t probe_seed = 92) {
  wire::WireScanRequest request;
  request.model_ref = ModelRef::from_checkpoint(make_checkpoint());
  request.probe_key = ProbeKey{tiny_spec(), 32, probe_seed};
  request.method = method;
  return request;
}

FleetConfig base_config(std::int64_t workers) {
  FleetConfig config;
  config.worker_argv = {server_path(), "--steps", std::to_string(kSteps), "--hazards"};
  config.num_workers = workers;
  config.max_in_flight_per_worker = 2;
  config.respawn_backoff_initial_seconds = 0.02;
  config.respawn_backoff_max_seconds = 5.0;
  return config;
}

/// Timing fields are the one legitimately non-deterministic part of a
/// report; zero them and serialize the rest for exact comparison.
std::vector<std::uint8_t> serialized_without_timing(ScanStatus status,
                                                    const DetectionReport& report) {
  wire::WireScanResult result;
  result.status = status;
  result.report = report;
  result.report.per_class_seconds.assign(result.report.per_class_seconds.size(), 0.0);
  result.report.wall_seconds = 0.0;
  return wire::encode_result(result);
}

template <typename Predicate>
bool wait_until(Predicate predicate, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

class FleetTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultRegistry::instance().disarm_all(); }
};

// The acceptance pin: SIGKILL a worker while it is scanning. Every scan
// still resolves kDone, the re-dispatched reports are byte-identical to the
// same scans run in-process, nothing is quarantined, and the fleet records
// exactly one respawn.
TEST_F(FleetTest, KilledWorkerMidScanRedispatchesByteIdentical) {
  WorkerFleet fleet(base_config(/*workers=*/2));
  FleetHandle first = fleet.submit(make_request("NC", /*probe_seed=*/92));
  FleetHandle second = fleet.submit(make_request("NC", /*probe_seed=*/93));

  // Kill the first worker that has a scan in flight.
  std::int64_t victim = -1;
  ASSERT_TRUE(wait_until(
      [&] {
        for (const WorkerHealth& w : fleet.health().workers) {
          if (w.alive && w.in_flight > 0) {
            victim = w.pid;
            return true;
          }
        }
        return false;
      },
      10.0));
  kill(static_cast<pid_t>(victim), SIGKILL);

  const FleetOutcome& first_outcome = first.wait();
  const FleetOutcome& second_outcome = second.wait();
  ASSERT_EQ(first_outcome.status, ScanStatus::kDone) << first_outcome.error;
  ASSERT_EQ(second_outcome.status, ScanStatus::kDone) << second_outcome.error;

  // In-process ground truth, same detector configuration as the workers.
  DetectionService local;
  for (const auto& [outcome, seed] :
       std::vector<std::pair<const FleetOutcome*, std::uint64_t>>{{&first_outcome, 92},
                                                                  {&second_outcome, 93}}) {
    ScanRequest reference;
    reference.model_ref = ModelRef::from_checkpoint(make_checkpoint());
    reference.detector = make_wire_detector("NC", kSteps);
    reference.probe_key = ProbeKey{tiny_spec(), 32, seed};
    const ScanHandle handle = local.submit(std::move(reference));
    const ScanOutcome& local_outcome = handle.wait();
    ASSERT_EQ(local_outcome.status, ScanStatus::kDone) << local_outcome.error;
    EXPECT_EQ(serialized_without_timing(outcome->status, outcome->report),
              serialized_without_timing(local_outcome.status, local_outcome.report))
        << "probe seed " << seed;
  }

  const FleetHealth health = fleet.health();
  EXPECT_EQ(health.requests_quarantined, 0);
  EXPECT_EQ(health.respawns_total, 1);
  EXPECT_GE(health.redispatches_total, 1);
  EXPECT_EQ(health.requests_completed, 2);
  fleet.shutdown();
}

// A request that abort()s every worker it lands on is quarantined after
// max_request_kills deaths — resolved kFailed naming the worker and signal
// — while a healthy scan sharing the fleet still completes.
TEST_F(FleetTest, PoisonRequestQuarantinedAfterTwoKills) {
  FleetConfig config = base_config(/*workers=*/2);
  config.max_request_kills = 2;
  WorkerFleet fleet(config);
  FleetHandle healthy = fleet.submit(make_request("NC"));
  FleetHandle poison = fleet.submit(make_request("__crash__"));

  const FleetOutcome& poison_outcome = poison.wait();
  EXPECT_EQ(poison_outcome.status, ScanStatus::kFailed);
  EXPECT_NE(poison_outcome.error.find("poison request"), std::string::npos)
      << poison_outcome.error;
  EXPECT_NE(poison_outcome.error.find("signal"), std::string::npos) << poison_outcome.error;
  EXPECT_EQ(poison_outcome.worker_kills, 2);

  const FleetOutcome& healthy_outcome = healthy.wait();
  EXPECT_EQ(healthy_outcome.status, ScanStatus::kDone) << healthy_outcome.error;

  const FleetHealth health = fleet.health();
  EXPECT_EQ(health.requests_quarantined, 1);
  EXPECT_GE(health.respawns_total, 1);
  fleet.shutdown();
}

// A worker that dies mid-write — leaving a TRUNCATED frame on the pipe —
// is a worker death like any other: the router never wedges or crashes on
// the partial frame, the poison request is quarantined, healthy work
// completes.
TEST_F(FleetTest, TruncatedFrameFromDyingWorkerNeverWedgesRouter) {
  WorkerFleet fleet(base_config(/*workers=*/2));
  FleetHandle healthy = fleet.submit(make_request("NC"));
  FleetHandle garbler = fleet.submit(make_request("__garble__"));

  const FleetOutcome& garble_outcome = garbler.wait();
  EXPECT_EQ(garble_outcome.status, ScanStatus::kFailed);
  EXPECT_NE(garble_outcome.error.find("poison request"), std::string::npos)
      << garble_outcome.error;

  const FleetOutcome& healthy_outcome = healthy.wait();
  EXPECT_EQ(healthy_outcome.status, ScanStatus::kDone) << healthy_outcome.error;

  // The router survived two truncated-frame deaths and still serves.
  FleetHandle after = fleet.submit(make_request("NC"));
  const FleetOutcome& after_outcome = after.wait();
  EXPECT_EQ(after_outcome.status, ScanStatus::kDone) << after_outcome.error;
  fleet.shutdown();
}

// A wedged worker (reader thread hung: pings go unanswered, no results ever
// come) is detected by heartbeat SILENCE, SIGKILLed, and its request
// eventually quarantined. The fleet keeps serving afterwards.
TEST_F(FleetTest, HeartbeatSilenceKillsWedgedWorker) {
  FleetConfig config = base_config(/*workers=*/1);
  config.heartbeat_interval_seconds = 0.05;
  config.heartbeat_timeout_seconds = 0.5;
  WorkerFleet fleet(config);
  FleetHandle wedge = fleet.submit(make_request("__wedge__"));

  const FleetOutcome& wedge_outcome = wedge.wait();
  EXPECT_EQ(wedge_outcome.status, ScanStatus::kFailed);
  EXPECT_NE(wedge_outcome.error.find("poison request"), std::string::npos)
      << wedge_outcome.error;
  EXPECT_EQ(wedge_outcome.worker_kills, 2);

  // The quarantine resolves at the second death; the slot's second respawn
  // lands after its backoff.
  ASSERT_TRUE(wait_until([&] { return fleet.health().respawns_total >= 2; }, 5.0));
  const FleetHealth health = fleet.health();
  EXPECT_EQ(health.requests_quarantined, 1);
  EXPECT_FALSE(health.workers[0].last_death.empty());

  // The respawned worker serves normally.
  FleetHandle after = fleet.submit(make_request("NC"));
  const FleetOutcome& after_outcome = after.wait();
  EXPECT_EQ(after_outcome.status, ScanStatus::kDone) << after_outcome.error;
  fleet.shutdown();
}

// Respawn backoff doubles per consecutive failure — observed through the
// recorded schedule while the fleet.spawn fault point keeps the respawn
// failing — and the slot comes back once the fault clears.
TEST_F(FleetTest, BackoffScheduleDoublesAcrossConsecutiveFailures) {
  WorkerFleet fleet(base_config(/*workers=*/1));
  std::int64_t pid = -1;
  ASSERT_TRUE(wait_until(
      [&] {
        const FleetHealth health = fleet.health();
        if (!health.workers[0].alive) return false;
        pid = health.workers[0].pid;
        return true;
      },
      5.0));

  // The next three spawn attempts die at the fault point; the fourth lands.
  fault::FaultSpec spec;
  spec.kind = fault::FaultSpec::Kind::kThrow;
  spec.after_hits = 0;
  spec.count = 3;
  fault::FaultRegistry::instance().arm("fleet.spawn", spec);
  kill(static_cast<pid_t>(pid), SIGKILL);

  ASSERT_TRUE(wait_until(
      [&] {
        const FleetHealth health = fleet.health();
        return health.respawns_total == 1 && health.workers[0].alive;
      },
      10.0));

  const FleetHealth health = fleet.health();
  // Death, then three failed attempts: four scheduled backoffs, doubling.
  ASSERT_GE(health.respawn_backoffs_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(health.respawn_backoffs_seconds[0], 0.02);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(health.respawn_backoffs_seconds[i],
                     2.0 * health.respawn_backoffs_seconds[i - 1])
        << "backoff " << i;
  }
  EXPECT_EQ(health.workers[0].restarts, 1);

  // Backoff resets on a delivered result: the slot serves, and a later
  // death starts from the initial backoff again.
  FleetHandle scan = fleet.submit(make_request("NC"));
  ASSERT_EQ(scan.wait().status, ScanStatus::kDone);
  const FleetHealth before = fleet.health();
  kill(static_cast<pid_t>(before.workers[0].pid), SIGKILL);
  ASSERT_TRUE(wait_until([&] { return fleet.health().respawns_total == 2; }, 5.0));
  const FleetHealth after = fleet.health();
  ASSERT_GT(after.respawn_backoffs_seconds.size(), before.respawn_backoffs_seconds.size());
  EXPECT_DOUBLE_EQ(after.respawn_backoffs_seconds.back(), 0.02);
  fleet.shutdown();
}

// A dispatch write that fails (fleet.route fault standing in for EPIPE)
// charges the worker, re-dispatches the request, and the scan completes on
// the replacement dispatch.
TEST_F(FleetTest, RouteFaultChargesWorkerAndRedispatches) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultSpec::Kind::kThrow;
  spec.after_hits = 0;
  spec.count = 1;
  fault::FaultRegistry::instance().arm("fleet.route", spec);

  WorkerFleet fleet(base_config(/*workers=*/2));
  FleetHandle handle = fleet.submit(make_request("NC"));
  const FleetOutcome& outcome = handle.wait();
  ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
  EXPECT_EQ(outcome.dispatches, 2);
  EXPECT_EQ(outcome.worker_kills, 1);

  const FleetHealth health = fleet.health();
  EXPECT_EQ(health.redispatches_total, 1);
  EXPECT_EQ(health.requests_quarantined, 0);
  fleet.shutdown();
}

// A heartbeat that cannot be evaluated (fleet.heartbeat fault standing in
// for an undeliverable ping) is treated as worker silence: the worker is
// killed and respawned.
TEST_F(FleetTest, HeartbeatFaultTreatsWorkerAsSilent) {
  FleetConfig config = base_config(/*workers=*/1);
  config.heartbeat_interval_seconds = 0.05;
  WorkerFleet fleet(config);
  ASSERT_TRUE(wait_until([&] { return fleet.health().workers[0].alive; }, 5.0));

  fault::FaultSpec spec;
  spec.kind = fault::FaultSpec::Kind::kThrow;
  spec.after_hits = 0;
  spec.count = 1;
  fault::FaultRegistry::instance().arm("fleet.heartbeat", spec);

  ASSERT_TRUE(wait_until(
      [&] {
        const FleetHealth health = fleet.health();
        return health.respawns_total == 1 && health.workers[0].alive;
      },
      10.0));
  const FleetHealth health = fleet.health();
  EXPECT_NE(health.workers[0].last_death.find("signal"), std::string::npos)
      << health.workers[0].last_death;
  fleet.shutdown();
}

// Requests the wire refuses (bad options, an empty probe, an empty
// checkpoint path) fail at submit with the decoder's reason. A worker that
// could not decode such a request would answer it as the unattributable
// request 0, and its future would never resolve. Nothing is queued or
// routed for the refused requests, and the fleet keeps serving.
TEST_F(FleetTest, OptionsTheWireRefusesFailAtSubmit) {
  WorkerFleet fleet(base_config(/*workers=*/1));
  wire::WireScanRequest nan_weight = make_request("NC");
  nan_weight.options.fair_weight = std::numeric_limits<double>::quiet_NaN();
  wire::WireScanRequest far_deadline = make_request("NC");
  far_deadline.options.deadline_seconds = 2e9;
  wire::WireScanRequest empty_probe = make_request("NC");
  empty_probe.probe_key.probe_size = 0;
  wire::WireScanRequest no_path = make_request("NC");
  no_path.model_ref = ModelRef::from_checkpoint("");
  for (const FleetHandle& refused : {fleet.submit(nan_weight), fleet.submit(far_deadline),
                                     fleet.submit(empty_probe), fleet.submit(no_path)}) {
    ASSERT_EQ(refused.wait_for(30.0), ScanStatus::kFailed);
    EXPECT_NE(refused.wait().error.find("wire:"), std::string::npos) << refused.wait().error;
    EXPECT_EQ(refused.wait().dispatches, 0);
  }
  const FleetHealth health = fleet.health();
  EXPECT_EQ(health.queued_requests, 0);
  EXPECT_EQ(health.in_flight_requests, 0);

  FleetHandle after = fleet.submit(make_request("NC"));
  const FleetOutcome& after_outcome = after.wait();
  EXPECT_EQ(after_outcome.status, ScanStatus::kDone) << after_outcome.error;
  fleet.shutdown();
}

// Shutdown under load terminates EVERY request: in-flight scans either
// finish inside the drain budget or are cancelled by the escalation
// (EOF drain -> SIGTERM -> SIGKILL); queued scans cancel immediately; a
// submission racing shutdown cancels instead of wedging.
TEST_F(FleetTest, DrainUnderLoadTerminatesEveryRequest) {
  FleetConfig config = base_config(/*workers=*/2);
  config.drain_wait_seconds = 0.5;
  config.sigterm_wait_seconds = 0.5;
  WorkerFleet fleet(config);
  std::vector<FleetHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(fleet.submit(make_request("NC", /*probe_seed=*/100 + i)));
  }
  fleet.shutdown();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const FleetOutcome& outcome = handles[i].wait();  // must not block forever
    EXPECT_TRUE(outcome.status == ScanStatus::kDone || outcome.status == ScanStatus::kCancelled)
        << "request " << i << ": " << to_string(outcome.status);
  }
  // Submission after shutdown resolves immediately as cancelled.
  FleetHandle late = fleet.submit(make_request("NC"));
  EXPECT_EQ(late.wait().status, ScanStatus::kCancelled);
  // Every worker process is gone.
  for (const WorkerHealth& w : fleet.health().workers) {
    EXPECT_FALSE(w.alive);
  }
}

}  // namespace
}  // namespace usb
