#include "service/scan_worker.h"

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/usb.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "service/detection_service.h"
#include "service/wire.h"

namespace usb {
namespace {

// SIGTERM drain flag. Process-global by necessity (signal handlers cannot
// capture); run_scan_worker is a once-per-process entry point.
std::atomic<bool> g_drain{false};

void on_sigterm(int) { g_drain.store(true, std::memory_order_relaxed); }

/// Installs the SIGTERM drain handler WITHOUT SA_RESTART, so the signal
/// interrupts a reader blocked in read() (wire::read_frame retries EINTR
/// only until it observes the drain flag).
void install_drain_handler() {
  struct sigaction action = {};
  action.sa_handler = on_sigterm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the EINTR is the wake-up
  sigaction(SIGTERM, &action, nullptr);
}

/// One accepted request: a live handle waiting for its scan, already tagged
/// with the wire request id.
struct PendingScan {
  std::uint64_t request_id = 0;
  ScanHandle handle;
};

/// Serializes result/pong frames onto the single output stream. write()
/// returns false once the peer is gone so callers can stop producing.
class FrameWriter {
 public:
  FrameWriter(std::FILE* out) : out_(out) {}

  bool write(const std::vector<std::uint8_t>& payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (dead_) return false;
    try {
      wire::write_frame(out_, payload);
    } catch (const wire::WireError& error) {
      std::fprintf(stderr, "scan_worker: result stream lost: %s\n", error.what());
      dead_ = true;
    }
    return !dead_;
  }

  [[nodiscard]] bool dead() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dead_;
  }

 private:
  std::FILE* out_;
  mutable std::mutex mutex_;
  bool dead_ = false;
};

wire::WireScanResult outcome_to_result(std::uint64_t request_id, const ScanOutcome& outcome) {
  wire::WireScanResult result;
  result.request_id = request_id;
  result.status = outcome.status;
  result.error = outcome.error;
  result.report = outcome.report;
  return result;
}

wire::WireScanResult failed_result(std::uint64_t request_id, const std::string& error) {
  wire::WireScanResult result;
  result.request_id = request_id;
  result.status = ScanStatus::kFailed;
  result.error = error;
  return result;
}

/// Test hazard: emit a deliberately TRUNCATED frame (length prefix promising
/// more bytes than follow) and die, simulating a worker crashing mid-write.
/// The supervisor's reader must treat the partial frame as worker death,
/// never wedge on it.
[[noreturn]] void garble_and_die(std::FILE* out) {
  const std::uint32_t promised = 64;
  (void)std::fwrite(&promised, sizeof(promised), 1, out);
  const std::uint8_t half[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  (void)std::fwrite(half, 1, sizeof(half), out);
  (void)std::fflush(out);
  _exit(1);
}

}  // namespace

DetectorPtr make_wire_detector(const std::string& method, std::int64_t steps) {
  if (method == "NC") {
    ReverseOptConfig config;
    config.steps = steps;
    return std::make_unique<NeuralCleanse>(config);
  }
  if (method == "TABOR") {
    TaborConfig config;
    config.base.steps = steps;
    return std::make_unique<Tabor>(config);
  }
  if (method == "USB") {
    UsbConfig config;
    config.refine_steps = steps;
    if (steps <= 16) {
      config.uap.max_passes = 1;
      config.uap.craft_size = 32;
      config.uap.batch_size = 16;
      config.batch_size = 8;
    }
    return std::make_unique<UsbDetector>(config);
  }
  return nullptr;
}

int run_scan_worker(const ScanWorkerOptions& options) {
  wire::ignore_sigpipe();
  g_drain.store(false, std::memory_order_relaxed);
  install_drain_handler();

  // Every thread spawned below (service dispatchers/pool, the completion
  // watcher) inherits a blocked SIGTERM, so the signal is always delivered
  // to THIS thread — the one blocked in read_frame, where it must land to
  // interrupt the read.
  sigset_t term_set;
  sigemptyset(&term_set);
  sigaddset(&term_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term_set, nullptr);

  DetectionServiceConfig service_config;
  service_config.model_store_max_bytes = options.model_store_max_bytes;
  DetectionService service(service_config);
  FrameWriter writer(stdout);

  // Completion watcher: sweeps the pending list and streams each scan's
  // result the moment it turns terminal. wait_for on the front handle
  // paces the sweep without busy-spinning (and without ever blocking past
  // 20ms, so newly submitted scans and drain are noticed promptly).
  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::deque<PendingScan> pending;
  bool reader_done = false;

  std::thread watcher([&] {
    for (;;) {
      std::optional<PendingScan> front;
      {
        std::unique_lock<std::mutex> lock(pending_mutex);
        if (pending.empty()) {
          if (reader_done) return;
          pending_cv.wait_for(lock, std::chrono::milliseconds(20));
          continue;
        }
        front = pending.front();
      }
      (void)front->handle.wait_for(0.02);
      // Sweep EVERY pending scan, not just the front: results stream in
      // completion order, which re-dispatching supervisors rely on.
      std::vector<PendingScan> finished;
      {
        const std::lock_guard<std::mutex> lock(pending_mutex);
        for (auto it = pending.begin(); it != pending.end();) {
          const ScanStatus status = it->handle.poll();
          if (status == ScanStatus::kDone || status == ScanStatus::kCancelled ||
              status == ScanStatus::kFailed || status == ScanStatus::kTimedOut ||
              status == ScanStatus::kShed) {
            finished.push_back(std::move(*it));
            it = pending.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (const PendingScan& scan : finished) {
        if (!writer.write(wire::encode_result(
                outcome_to_result(scan.request_id, scan.handle.wait())))) {
          return;  // peer gone: nothing further can be delivered
        }
      }
    }
  });

  pthread_sigmask(SIG_UNBLOCK, &term_set, nullptr);

  std::int64_t accepted = 0;
  int exit_code = 0;
  std::vector<std::uint8_t> payload;
  try {
    while (!g_drain.load(std::memory_order_relaxed) && !writer.dead() &&
           wire::read_frame(stdin, payload, wire::kDefaultMaxFrameBytes, &g_drain)) {
      std::uint64_t request_id = 0;
      try {
        const std::uint32_t record = wire::peek_record(payload);
        if (record == wire::kPingRecord) {
          (void)writer.write(wire::encode_pong(wire::decode_ping(payload)));
          continue;
        }
        wire::WireScanRequest request = wire::decode_request(payload);
        request_id = request.request_id;
        if (options.enable_test_hazards) {
          if (request.method == "__crash__") std::abort();
          if (request.method == "__garble__") garble_and_die(stdout);
          if (request.method == "__wedge__") {
            // Wedge the FRAME-READING thread: pings go unanswered, which is
            // exactly the heartbeat-silence failure a supervisor must kill.
            for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
          }
        }
        DetectorPtr detector = make_wire_detector(request.method, options.steps);
        if (detector == nullptr) {
          throw wire::WireError("unknown method '" + request.method + "'");
        }
        ScanRequest submit;
        submit.model_ref = std::move(request.model_ref);
        submit.detector = std::move(detector);
        submit.probe_key = request.probe_key;
        submit.options = request.options;
        PendingScan scan;
        scan.request_id = request_id;
        scan.handle = service.submit(std::move(submit));
        {
          const std::lock_guard<std::mutex> lock(pending_mutex);
          pending.push_back(std::move(scan));
        }
        pending_cv.notify_one();
        ++accepted;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "scan_worker: request rejected: %s\n", error.what());
        (void)writer.write(wire::encode_result(failed_result(request_id, error.what())));
      }
    }
  } catch (const wire::WireError& error) {
    // Stream-level corruption (truncated header/payload, oversized frame):
    // framing is lost, nothing further can be attributed to a request. The
    // in-flight scans still drain below so their results are not discarded.
    std::fprintf(stderr, "scan_worker: %s\n", error.what());
    exit_code = 1;
  }

  {
    const std::lock_guard<std::mutex> lock(pending_mutex);
    reader_done = true;
  }
  pending_cv.notify_one();
  watcher.join();
  if (writer.dead()) exit_code = 1;

  const ModelStore& models = service.model_store();
  std::fprintf(stderr,
               "scan_worker: done (%lld accepted) — model store %lld entries, %lld hits / "
               "%lld misses, %lld bytes resident; probe store %lld entries, %lld hits\n",
               static_cast<long long>(accepted), static_cast<long long>(models.size()),
               static_cast<long long>(models.hits()), static_cast<long long>(models.misses()),
               static_cast<long long>(models.bytes_resident()),
               static_cast<long long>(service.probe_store().size()),
               static_cast<long long>(service.probe_store().hits()));
  return exit_code;
}

}  // namespace usb
