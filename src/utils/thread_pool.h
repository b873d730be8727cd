// Deterministic fork-join thread pool.
//
// Two parallelism primitives, both bit-identical for any thread count:
//
//  - `parallel_for` statically partitions an index range into contiguous
//    chunks. Each worker writes only to its own output slice (or a
//    per-worker accumulator that the caller reduces in fixed order), so
//    results do not depend on the schedule. This is the class-level fan-out
//    primitive (one chunk of classes per worker).
//
//  - `parallel_for_deterministic` executes a FIXED, size-derived list of
//    tiles with whatever threads happen to be free: the caller always
//    participates, idle workers of the same pool join in, and when the pool
//    is saturated (or has a single worker) every tile simply runs inline on
//    the caller. Because the tile decomposition depends only on the problem
//    size and each tile writes a disjoint output region with a fixed
//    internal accumulation order, ANY assignment of tiles to threads
//    produces bit-identical results. This is the intra-op primitive the
//    blocked GEMM core uses, and it is safe to call from inside a pool
//    worker (nested use never deadlocks — unclaimed tiles are drained by
//    the submitting thread itself).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace usb {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. <= 0 is the one default size: USB_THREADS
  /// if set (> 0), else hardware concurrency capped at 16 (1 when unknown).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Runs body(begin_i, end_i, worker_index) over a static partition of
  /// [0, count). Blocks until all chunks complete. Exceptions thrown by the
  /// body are rethrown on the calling thread (first one wins). Safe to call
  /// from several non-worker threads concurrently — each call tracks its own
  /// completion and its own first error, so overlapping scans submitted by
  /// different DetectionService executors share the workers without sharing
  /// failure state or wakeups.
  void parallel_for(std::int64_t count,
                    const std::function<void(std::int64_t, std::int64_t, int)>& body);

  /// Runs body(tile) for every tile in [0, num_tiles), assigning tiles to
  /// threads dynamically. The calling thread always participates, so the
  /// call completes even when every worker is busy (tiles then run inline)
  /// and is safe from inside a worker of this pool. Idle workers join in,
  /// which is how under-subscribed class scans (K < pool size, or a
  /// single-class reverse_engineer_class call) hand leftover cores to the
  /// tensor kernels. Bit-identical results require only that the CALLER's
  /// tile decomposition is size-derived and tiles write disjoint outputs;
  /// the schedule itself carries no numeric effect. Blocks until all tiles
  /// complete; the first exception thrown by a tile is rethrown here.
  void parallel_for_deterministic(std::int64_t num_tiles,
                                  const std::function<void(std::int64_t)>& body);

  /// Process-wide pool of the default size (ThreadPool(0)). Lives for the
  /// process lifetime.
  static ThreadPool& global();

  /// Adopts this pool's worker context on a foreign thread for the scope of
  /// the guard: nested free parallel_for calls run inline (exactly as they
  /// would inside a pool worker) and nested parallel_for_deterministic
  /// calls target THIS pool, spilling tensor-kernel tiles onto its idle
  /// workers. The service's round-dispatcher threads wrap every class-job
  /// item in one of these so a scan item executes identically whether it
  /// runs on a pool worker or a dispatcher thread — the routing is
  /// schedule-only and carries no numeric effect. Restores the previous
  /// context on destruction; safe to nest.
  class WorkerContext {
   public:
    explicit WorkerContext(ThreadPool& pool) noexcept;
    ~WorkerContext();

    WorkerContext(const WorkerContext&) = delete;
    WorkerContext& operator=(const WorkerContext&) = delete;

   private:
    ThreadPool* previous_pool_;
    bool previous_inside_;
  };

 private:
  /// One in-flight parallel_for call. Lives on the submitting thread's
  /// stack; `outstanding` and `error` are guarded by the pool mutex. The
  /// submitter cannot return (and destroy the job) before every chunk has
  /// decremented `outstanding` under the mutex, and no worker touches the
  /// job after its decrement, so the stack lifetime is safe even with
  /// several concurrent submitters.
  struct ForJob {
    std::int64_t outstanding = 0;
    std::exception_ptr error;
  };

  struct Task {
    const std::function<void(std::int64_t, std::int64_t, int)>* body = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    int worker_index = 0;
    ForJob* job = nullptr;
  };

  /// One in-flight parallel_for_deterministic call. Lives on the submitting
  /// thread's stack; `observers` (guarded by the pool mutex) counts workers
  /// currently holding a pointer to it so the submitter never returns (and
  /// destroys the job) while a worker might still dereference it.
  struct TileJob {
    const std::function<void(std::int64_t)>* body = nullptr;
    std::int64_t count = 0;
    std::atomic<std::int64_t> next{0};       // next unclaimed tile
    std::atomic<std::int64_t> completed{0};  // tiles fully executed (or skipped after error)
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // guarded by the pool mutex
    int observers = 0;         // guarded by the pool mutex
  };

  void worker_loop();
  /// Claims and runs tiles of `job` until none remain. Does not block.
  void run_tiles(TileJob& job);
  [[nodiscard]] bool has_open_tile_job_locked() const;

  std::vector<std::thread> workers_;
  std::vector<Task> queue_;
  std::vector<TileJob*> tile_jobs_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  bool shutting_down_ = false;
};

/// Convenience wrapper over ThreadPool::global().parallel_for with a
/// (begin, end) body; worker index hidden.
void parallel_for(std::int64_t count, const std::function<void(std::int64_t, std::int64_t)>& body);

/// Tile-parallel helper for the tensor kernels: dispatches to the pool whose
/// worker the calling thread is (so kernels nested inside a class-scan job
/// share that scan's pool and can only soak up ITS idle workers), else to
/// ThreadPool::global(). See ThreadPool::parallel_for_deterministic for the
/// determinism contract.
void parallel_for_deterministic(std::int64_t num_tiles,
                                const std::function<void(std::int64_t)>& body);

}  // namespace usb
