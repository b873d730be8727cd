#include "service/worker_fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "utils/fault_injection.h"
#include "utils/timer.h"

namespace usb {

namespace detail {

/// Shared request future. `dispatches`/`kills` are routing history and are
/// guarded by the FLEET mutex; everything below `mutex` is the future half,
/// guarded by the state's own mutex (never held while taking the fleet
/// mutex, so the ordering fleet-then-state is acyclic).
struct FleetRequestState {
  std::uint64_t id = 0;
  wire::WireScanRequest request;
  std::int64_t dispatches = 0;
  std::int64_t kills = 0;

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool terminal = false;
  ScanStatus status = ScanStatus::kQueued;
  FleetOutcome outcome;
};

}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;
using detail::FleetRequestState;

/// A request whose worker dies under it this many times is quarantined
/// (resolved kFailed) instead of re-dispatched again.
constexpr std::int64_t kMaxRequestKills = 2;

const std::shared_ptr<FleetRequestState>& require_state(
    const std::shared_ptr<FleetRequestState>& state) {
  if (state == nullptr) throw std::logic_error("FleetHandle: empty handle");
  return state;
}

std::string describe_wait_status(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" + (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  return "wait status " + std::to_string(status);
}

void resolve_state(const std::shared_ptr<FleetRequestState>& state, ScanStatus status,
                   std::string error, wire::WireScanResult* result) {
  const std::lock_guard<std::mutex> lock(state->mutex);
  if (state->terminal) return;
  state->status = status;
  state->outcome.status = status;
  state->outcome.error = std::move(error);
  if (result != nullptr) {
    state->outcome.report = std::move(result->report);
  }
  state->outcome.dispatches = state->dispatches;
  state->outcome.worker_kills = state->kills;
  state->terminal = true;
  state->cv.notify_all();
}

}  // namespace

ScanStatus FleetHandle::poll() const {
  const auto& state = require_state(state_);
  const std::lock_guard<std::mutex> lock(state->mutex);
  return state->status;
}

FleetOutcome FleetHandle::wait() && { return std::as_const(*this).wait(); }

const FleetOutcome& FleetHandle::wait() const& {
  const auto& state = require_state(state_);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state] { return state->terminal; });
  return state->outcome;
}

ScanStatus FleetHandle::wait_for(double seconds) const {
  const auto& state = require_state(state_);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait_for(lock, steady_span(seconds), [&state] { return state->terminal; });
  return state->status;
}

struct WorkerFleet::Impl {
  enum class WorkerState {
    kDown,   // no process: awaiting (re)spawn, possibly in backoff
    kAlive,  // process up, routable
    kDying,  // death observed (EOF / truncation / EPIPE / silence /
             // waitpid), awaiting reap by the monitor
    kDead,   // shutdown only: reaped, never respawning
  };

  struct Worker {
    std::int64_t index = 0;
    WorkerState state = WorkerState::kDown;
    pid_t pid = -1;
    std::FILE* to = nullptr;    // supervisor -> worker stdin (requests, pings)
    std::FILE* from = nullptr;  // worker stdout -> supervisor (results, pongs)
    std::thread reader;
    std::int64_t in_flight = 0;
    std::int64_t restarts = 0;          // post-death spawns
    std::int64_t failures = 0;          // consecutive: backoff exponent
    bool ever_spawned = false;
    bool reaped = false;                // waitpid already collected the corpse
    int wait_status = 0;                // valid when reaped
    Clock::time_point last_pong;
    Clock::time_point last_ping;
    std::string last_death;
    Clock::time_point next_spawn_at;
  };

  struct InFlight {
    std::shared_ptr<FleetRequestState> state;
    std::int64_t worker = -1;
  };

  explicit Impl(FleetConfig config) : config_(std::move(config)) {
    if (config_.worker_argv.empty()) {
      throw std::runtime_error("WorkerFleet: worker_argv must name the worker binary");
    }
    if (config_.num_workers < 1) {
      throw std::runtime_error("WorkerFleet: num_workers must be >= 1");
    }
    wire::ignore_sigpipe();  // a dead worker's pipe must not kill the supervisor
    workers_.resize(static_cast<std::size_t>(config_.num_workers));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        workers_[i].index = static_cast<std::int64_t>(i);
        spawn_locked(workers_[i]);  // failure schedules a backed-off retry
      }
    }
    monitor_ = std::thread([this] { monitor_loop(); });
  }

  ~Impl() { shutdown(); }

  // ---- spawn ------------------------------------------------------------

  /// Attempts to fork/exec one worker for `w`. On any failure (fleet.spawn
  /// fault, pipe/fork error) schedules a backed-off retry and returns false.
  bool spawn_locked(Worker& w) {
    try {
      USB_FAULT_POINT("fleet.spawn");
      // O_CLOEXEC on every pipe end: a worker must NOT inherit the pipes of
      // its siblings (or of the slot it replaces) — a stray inherited write
      // end would keep a dead sibling's stream open and mask its EOF.
      int to_child[2] = {-1, -1};
      int from_child[2] = {-1, -1};
      if (pipe2(to_child, O_CLOEXEC) != 0) {
        throw std::runtime_error("pipe2 failed");
      }
      if (pipe2(from_child, O_CLOEXEC) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        throw std::runtime_error("pipe2 failed");
      }
      // argv built BEFORE fork: the child must only dup2/exec.
      std::vector<char*> argv;
      argv.reserve(config_.worker_argv.size() + 1);
      for (const std::string& arg : config_.worker_argv) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      const pid_t pid = fork();
      if (pid < 0) {
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        throw std::runtime_error("fork failed");
      }
      if (pid == 0) {
        // Child. dup2 onto stdio clears CLOEXEC on the two fds the worker
        // owns; every other pipe end closes at exec. Unblock SIGTERM in
        // case the spawning thread had it masked — the worker's graceful
        // drain depends on receiving it.
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        sigset_t unblock;
        sigfillset(&unblock);
        sigprocmask(SIG_UNBLOCK, &unblock, nullptr);
        execv(argv[0], argv.data());
        _exit(127);  // exec failed: surfaces as instant EOF + exit code 127
      }
      close(to_child[0]);
      close(from_child[1]);
      w.to = fdopen(to_child[1], "w");
      w.from = fdopen(from_child[0], "r");
      if (w.to == nullptr || w.from == nullptr) {
        // fclose closes the underlying fd; close() only the end fdopen
        // never wrapped.
        if (w.to != nullptr) fclose(w.to); else close(to_child[1]);
        if (w.from != nullptr) fclose(w.from); else close(from_child[0]);
        w.to = nullptr;
        w.from = nullptr;
        kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        throw std::runtime_error("fdopen failed");
      }
      w.pid = pid;
      w.state = WorkerState::kAlive;
      w.reaped = false;
      w.wait_status = 0;
      w.in_flight = 0;
      const Clock::time_point now = Clock::now();
      w.last_pong = now;  // a fresh worker gets the full timeout to speak
      w.last_ping = now - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(config_.heartbeat_interval_seconds));
      if (w.ever_spawned) {
        ++w.restarts;
        ++respawns_;
      }
      w.ever_spawned = true;
      const pid_t gen_pid = pid;
      std::FILE* gen_from = w.from;
      const std::int64_t index = w.index;
      w.reader = std::thread([this, index, gen_pid, gen_from] {
        reader_loop(index, gen_pid, gen_from);
      });
      return true;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "fleet: spawn of worker %lld failed: %s\n",
                   static_cast<long long>(w.index), error.what());
      schedule_respawn_locked(w);
      return false;
    }
  }

  /// Applies (and records) the next exponential backoff for slot `w` and
  /// schedules its respawn.
  void schedule_respawn_locked(Worker& w) {
    ++w.failures;
    double backoff = config_.respawn_backoff_initial_seconds;
    for (std::int64_t i = 1; i < w.failures; ++i) {
      backoff *= 2.0;
      if (backoff >= config_.respawn_backoff_max_seconds) break;
    }
    backoff = std::min(backoff, config_.respawn_backoff_max_seconds);
    respawn_backoffs_.push_back(backoff);
    w.next_spawn_at =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(backoff));
  }

  // ---- reader (one thread per live worker) ------------------------------

  void reader_loop(std::int64_t index, pid_t pid, std::FILE* from) {
    std::vector<std::uint8_t> payload;
    try {
      while (wire::read_frame(from, payload)) {
        const std::uint32_t record = wire::peek_record(payload);
        if (record == wire::kPongRecord) {
          (void)wire::decode_pong(payload);
          const std::lock_guard<std::mutex> lock(mutex_);
          Worker& w = workers_[static_cast<std::size_t>(index)];
          if (w.pid == pid) w.last_pong = Clock::now();
          continue;
        }
        if (record != wire::kResultRecord) {
          throw wire::WireError("unexpected record " + std::to_string(record) + " from worker");
        }
        // Decode outside the fleet lock: reports carry tensors.
        wire::WireScanResult result = wire::decode_result(payload);
        deliver_result(index, pid, std::move(result));
      }
    } catch (const wire::WireError& error) {
      // A truncated or corrupt frame is a worker dying mid-write; the slot
      // is dead either way. The router never wedges on a partial frame.
      std::fprintf(stderr, "fleet: worker %lld (pid %lld) stream error: %s\n",
                   static_cast<long long>(index), static_cast<long long>(pid), error.what());
    }
    // EOF (or stream error): first observation of this worker's death.
    const std::lock_guard<std::mutex> lock(mutex_);
    Worker& w = workers_[static_cast<std::size_t>(index)];
    if (w.pid == pid && w.state == WorkerState::kAlive) {
      w.state = WorkerState::kDying;
      cv_.notify_all();
    }
  }

  void deliver_result(std::int64_t index, pid_t pid, wire::WireScanResult result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Worker& w = workers_[static_cast<std::size_t>(index)];
    if (w.pid != pid) return;  // stale generation
    if (result.request_id == 0) {
      std::fprintf(stderr, "fleet: worker %lld answered an unattributable frame: %s\n",
                   static_cast<long long>(index), result.error.c_str());
      return;
    }
    const auto it = in_flight_.find(result.request_id);
    if (it == in_flight_.end() || it->second.worker != index) {
      // Resolved already, or re-dispatched to a survivor while this answer
      // raced in from a worker being torn down: drop the duplicate.
      return;
    }
    const std::shared_ptr<FleetRequestState> state = it->second.state;
    in_flight_.erase(it);
    --w.in_flight;
    w.failures = 0;  // a delivered result resets the slot's backoff
    ++completed_;
    resolve_state(state, result.status, result.error, &result);
  }

  // ---- monitor ----------------------------------------------------------

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!monitor_stop_) {
      sweep_exits_locked();
      reap_dying(lock);
      const Clock::time_point now = Clock::now();
      for (Worker& w : workers_) {
        if (w.state == WorkerState::kDown && now >= w.next_spawn_at) {
          spawn_locked(w);
        }
      }
      heartbeat_locked();
      route_locked();
      cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
  }

  /// Poll-based stand-in for a SIGCHLD handler (a library must not own
  /// process-global signal dispositions): notices a child that exited even
  /// before its pipe EOF is consumed, and collects the corpse.
  void sweep_exits_locked() {
    for (Worker& w : workers_) {
      if ((w.state == WorkerState::kAlive || w.state == WorkerState::kDying) && w.pid > 0 &&
          !w.reaped) {
        int status = 0;
        if (waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.reaped = true;
          w.wait_status = status;
          if (w.state == WorkerState::kAlive) w.state = WorkerState::kDying;
        }
      }
    }
  }

  /// Monitor-side death handling: for every kDying worker, kill + reap the
  /// process, join its reader (draining any results it buffered before
  /// dying), then re-dispatch or quarantine its in-flight requests and
  /// schedule the respawn. `lock` is released around the blocking steps.
  void reap_dying(std::unique_lock<std::mutex>& lock) {
    for (Worker& w : workers_) {
      if (w.state != WorkerState::kDying) continue;
      // Phase 1 (locked): detach the write side so no more routing/pings.
      std::FILE* to = w.to;
      w.to = nullptr;
      const pid_t pid = w.pid;
      // Phase 2 (unlocked): blocking teardown. The reader keeps delivering
      // buffered results until EOF — w.pid is still `pid`, so they land.
      lock.unlock();
      if (to != nullptr) fclose(to);
      bool reaped;
      {
        const std::lock_guard<std::mutex> relock(mutex_);
        reaped = w.reaped;
      }
      int status = 0;
      if (!reaped) {
        kill(pid, SIGKILL);  // idempotent; ESRCH when already gone
        waitpid(pid, &status, 0);
      }
      if (w.reader.joinable()) w.reader.join();
      if (w.from != nullptr) fclose(w.from);
      w.from = nullptr;
      lock.lock();
      if (w.reaped) status = w.wait_status;
      w.last_death = describe_wait_status(status);
      std::fprintf(stderr, "fleet: worker %lld (pid %lld) died: %s\n",
                   static_cast<long long>(w.index), static_cast<long long>(pid),
                   w.last_death.c_str());
      // Phase 3 (locked): orphaned in-flight requests take a kill each,
      // then re-dispatch to survivors or quarantine.
      w.pid = -1;
      w.state = WorkerState::kDown;
      w.in_flight = 0;
      for (auto it = in_flight_.begin(); it != in_flight_.end();) {
        if (it->second.worker != w.index) {
          ++it;
          continue;
        }
        const std::shared_ptr<FleetRequestState> state = it->second.state;
        it = in_flight_.erase(it);
        ++state->kills;
        if (state->kills >= kMaxRequestKills) {
          ++quarantined_;
          resolve_state(state, ScanStatus::kFailed,
                        "poison request: dispatch #" + std::to_string(state->dispatches) +
                            " killed worker " + std::to_string(w.index) + " (pid " +
                            std::to_string(pid) + ", " + w.last_death +
                            "); quarantined after " + std::to_string(state->kills) +
                            " worker kills",
                        nullptr);
        } else {
          ++redispatches_;
          {
            const std::lock_guard<std::mutex> state_lock(state->mutex);
            if (state->terminal) continue;
            state->status = ScanStatus::kQueued;
          }
          pending_.push_front(state);  // re-dispatched work keeps its place
        }
      }
      schedule_respawn_locked(w);
    }
  }

  void heartbeat_locked() {
    const Clock::time_point now = Clock::now();
    for (Worker& w : workers_) {
      if (w.state != WorkerState::kAlive) continue;
      const double silence = std::chrono::duration<double>(now - w.last_pong).count();
      if (silence > config_.heartbeat_timeout_seconds) {
        std::fprintf(stderr, "fleet: worker %lld (pid %lld) heartbeat-silent for %.2fs: killing\n",
                     static_cast<long long>(w.index), static_cast<long long>(w.pid), silence);
        w.state = WorkerState::kDying;
        continue;
      }
      if (std::chrono::duration<double>(now - w.last_ping).count() <
          config_.heartbeat_interval_seconds) {
        continue;
      }
      w.last_ping = now;
      try {
        USB_FAULT_POINT("fleet.heartbeat");
        wire::write_frame(w.to, wire::encode_ping(++ping_nonce_));
      } catch (const std::exception&) {
        // A ping that cannot be delivered (EPIPE, or the fleet.heartbeat
        // fault standing in for a lost heartbeat) means the worker is
        // unreachable: same as silence.
        w.state = WorkerState::kDying;
      }
    }
  }

  void route_locked() {
    while (!pending_.empty()) {
      Worker* best = nullptr;
      for (Worker& w : workers_) {
        if (w.state != WorkerState::kAlive) continue;
        if (w.in_flight >= config_.max_in_flight_per_worker) continue;
        if (best == nullptr || w.in_flight < best->in_flight) best = &w;
      }
      if (best == nullptr) return;  // every survivor at cap (or none alive)
      const std::shared_ptr<FleetRequestState> state = pending_.front();
      pending_.pop_front();
      in_flight_[state->id] = InFlight{state, best->index};
      ++best->in_flight;
      ++state->dispatches;
      {
        const std::lock_guard<std::mutex> state_lock(state->mutex);
        state->status = ScanStatus::kRunning;
      }
      try {
        USB_FAULT_POINT("fleet.route");
        wire::write_frame(best->to, wire::encode_request(state->request));
      } catch (const std::exception& error) {
        // Write failure IS worker death (EPIPE from a gone process, or the
        // fleet.route fault standing in for one). The request is already
        // in in_flight_ assigned to this worker, so the death path charges
        // it a kill and re-dispatches — exactly as if the worker had taken
        // the frame and crashed on it.
        std::fprintf(stderr, "fleet: dispatch to worker %lld failed: %s\n",
                     static_cast<long long>(best->index), error.what());
        if (best->state == WorkerState::kAlive) best->state = WorkerState::kDying;
        return;  // let the monitor reap before routing more
      }
    }
  }

  // ---- submit / shutdown / health ---------------------------------------

  FleetHandle submit(wire::WireScanRequest request) {
    auto state = std::make_shared<FleetRequestState>();
    try {
      // A worker that cannot decode a request answers it as request 0,
      // which no future waits for: refuse it here instead.
      wire::check_request(request);
    } catch (const wire::WireError& error) {
      resolve_state(state, ScanStatus::kFailed, error.what(), nullptr);
      return FleetHandle(std::move(state));
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!accepting_) {
        resolve_state(state, ScanStatus::kCancelled, "fleet shutdown", nullptr);
        return FleetHandle(std::move(state));
      }
      state->id = next_id_++;
      request.request_id = state->id;
      state->request = std::move(request);
      ++submitted_;
      pending_.push_back(state);
    }
    cv_.notify_all();
    return FleetHandle(std::move(state));
  }

  void shutdown() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (shutdown_started_) {
        shutdown_cv_.wait(lock, [this] { return shutdown_done_; });
        return;
      }
      shutdown_started_ = true;
      accepting_ = false;
      monitor_stop_ = true;
      // Stop routing: queued requests will never run.
      while (!pending_.empty()) {
        resolve_state(pending_.front(), ScanStatus::kCancelled, "fleet shutdown", nullptr);
        pending_.pop_front();
      }
      cv_.notify_all();
    }
    if (monitor_.joinable()) monitor_.join();
    // Rung 1: EOF drain. Closing a worker's stdin asks it to finish its
    // in-flight scans, flush their results, and exit 0.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (Worker& w : workers_) {
        if (w.to != nullptr) {
          fclose(w.to);
          w.to = nullptr;
        }
      }
    }
    wait_for_exits(config_.drain_wait_seconds);
    // Rung 2: SIGTERM — the worker's own graceful-drain signal.
    signal_remaining(SIGTERM);
    wait_for_exits(config_.sigterm_wait_seconds);
    // Rung 3: SIGKILL cannot be ignored; the wait is a formality.
    signal_remaining(SIGKILL);
    wait_for_exits(10.0);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, entry] : in_flight_) {
        resolve_state(entry.state, ScanStatus::kCancelled, "fleet shutdown", nullptr);
      }
      in_flight_.clear();
      shutdown_done_ = true;
      shutdown_cv_.notify_all();
    }
  }

  void signal_remaining(int sig) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Worker& w : workers_) {
      if (w.pid > 0 && !w.reaped) kill(w.pid, sig);
    }
  }

  /// Shutdown helper: polls (WNOHANG) for worker exits until all are gone
  /// or `budget_seconds` elapse, finalizing each exited worker (join its
  /// reader — which first drains the results the worker flushed — then
  /// close the read end).
  void wait_for_exits(double budget_seconds) {
    const Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(budget_seconds));
    for (;;) {
      bool any_live = false;
      std::vector<Worker*> exited;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (Worker& w : workers_) {
          if (w.pid <= 0) continue;
          if (!w.reaped) {
            int status = 0;
            if (waitpid(w.pid, &status, WNOHANG) == w.pid) {
              w.reaped = true;
              w.wait_status = status;
            }
          }
          if (w.reaped) {
            exited.push_back(&w);
          } else {
            any_live = true;
          }
        }
      }
      for (Worker* w : exited) {
        if (w->reader.joinable()) w->reader.join();
        const std::lock_guard<std::mutex> lock(mutex_);
        if (w->from != nullptr) {
          fclose(w->from);
          w->from = nullptr;
        }
        w->last_death = describe_wait_status(w->wait_status);
        w->pid = -1;
        w->state = WorkerState::kDead;
      }
      if (!any_live) return;
      if (Clock::now() >= deadline) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  FleetHealth health() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    FleetHealth health;
    const Clock::time_point now = Clock::now();
    health.workers.reserve(workers_.size());
    for (const Worker& w : workers_) {
      WorkerHealth worker;
      worker.index = w.index;
      worker.pid = w.pid;
      worker.alive = w.state == WorkerState::kAlive;
      worker.in_flight = w.in_flight;
      worker.restarts = w.restarts;
      worker.last_heartbeat_age_seconds =
          worker.alive ? std::chrono::duration<double>(now - w.last_pong).count() : 0.0;
      worker.last_death = w.last_death;
      health.workers.push_back(std::move(worker));
    }
    health.queued_requests = static_cast<std::int64_t>(pending_.size());
    health.in_flight_requests = static_cast<std::int64_t>(in_flight_.size());
    health.requests_submitted = submitted_;
    health.requests_completed = completed_;
    health.requests_quarantined = quarantined_;
    health.respawns_total = respawns_;
    health.redispatches_total = redispatches_;
    health.respawn_backoffs_seconds = respawn_backoffs_;
    return health;
  }

  FleetConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;           // monitor wake-ups
  std::condition_variable shutdown_cv_;  // second shutdown() caller parks here
  std::vector<Worker> workers_;          // sized once; slots never move
  std::deque<std::shared_ptr<FleetRequestState>> pending_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t next_id_ = 1;  // 0 is the wire's "unattributable" id
  std::uint64_t ping_nonce_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t quarantined_ = 0;
  std::int64_t respawns_ = 0;
  std::int64_t redispatches_ = 0;
  std::vector<double> respawn_backoffs_;
  bool accepting_ = true;
  bool monitor_stop_ = false;
  bool shutdown_started_ = false;
  bool shutdown_done_ = false;
  std::thread monitor_;
};

WorkerFleet::WorkerFleet(FleetConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}

WorkerFleet::~WorkerFleet() = default;

FleetHandle WorkerFleet::submit(wire::WireScanRequest request) {
  return impl_->submit(std::move(request));
}

void WorkerFleet::shutdown() { impl_->shutdown(); }

FleetHealth WorkerFleet::health() const { return impl_->health(); }

}  // namespace usb
