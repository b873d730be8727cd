#include "utils/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace usb {
namespace {
// Nested parallel_for calls (a worker body that itself parallelizes) run
// inline: with every worker blocked waiting on sub-chunks nobody would be
// left to execute them. parallel_for_deterministic has no such restriction
// (the caller drains its own tiles), but it must target the pool the
// current thread belongs to, which t_current_pool tracks.
thread_local bool t_inside_worker = false;
thread_local ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    const char* env = std::getenv("USB_THREADS");
    num_threads = env != nullptr ? std::atoi(env) : 0;
    if (num_threads <= 0) {
      num_threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 16);
    }
  }
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::has_open_tile_job_locked() const {
  for (const TileJob* job : tile_jobs_) {
    if (job->next.load(std::memory_order_relaxed) < job->count) return true;
  }
  return false;
}

void ThreadPool::run_tiles(TileJob& job) {
  for (;;) {
    const std::int64_t tile = job.next.fetch_add(1, std::memory_order_relaxed);
    if (tile >= job.count) break;
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.body)(tile);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        job.failed.store(true, std::memory_order_relaxed);
        if (!job.error) job.error = std::current_exception();
      }
    }
    // Counted even for tiles skipped after a failure so `completed` always
    // reaches `count` and the submitter's wait terminates.
    job.completed.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    Task task;
    TileJob* tile_job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] {
        return shutting_down_ || !queue_.empty() || has_open_tile_job_locked();
      });
      if (shutting_down_ && queue_.empty()) return;
      if (!queue_.empty()) {
        task = queue_.back();
        queue_.pop_back();
      } else {
        for (TileJob* job : tile_jobs_) {
          if (job->next.load(std::memory_order_relaxed) < job->count) {
            tile_job = job;
            ++job->observers;
            break;
          }
        }
        if (tile_job == nullptr) continue;  // tiles were claimed before we got the lock
      }
    }
    if (tile_job != nullptr) {
      t_inside_worker = true;
      run_tiles(*tile_job);
      t_inside_worker = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --tile_job->observers;
      }
      work_done_.notify_all();
      continue;
    }
    try {
      t_inside_worker = true;
      (*task.body)(task.begin, task.end, task.worker_index);
      t_inside_worker = false;
    } catch (...) {
      t_inside_worker = false;
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!task.job->error) task.job->error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --task.job->outstanding;
      if (task.job->outstanding == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t count,
                              const std::function<void(std::int64_t, std::int64_t, int)>& body) {
  if (count <= 0) return;
  const auto num_workers = static_cast<std::int64_t>(workers_.size());
  // Small ranges and nested calls run inline: chunk dispatch costs more than
  // the work, and nesting would deadlock the pool.
  if (num_workers <= 1 || count < 2 || t_inside_worker) {
    if (t_inside_worker) {
      // Already inside some pool's worker: keep that worker's context.
      body(0, count, 0);
      return;
    }
    // Inline on the calling thread, but still within THIS pool's context:
    // nested parallel_for calls (e.g. tensor kernels inside a per-class
    // scan job) stay inline instead of escaping to the global pool, and
    // nested parallel_for_deterministic calls target this pool — so an
    // injected ThreadPool(1) really is the serial baseline that
    // USB_THREADS=1 is, and a single-chunk call on a wider pool hands its
    // GEMM tiles to THAT pool's idle workers, not the global pool's.
    ThreadPool* const previous_pool = t_current_pool;
    t_inside_worker = true;
    t_current_pool = this;
    try {
      body(0, count, 0);
    } catch (...) {
      t_inside_worker = false;
      t_current_pool = previous_pool;
      throw;
    }
    t_inside_worker = false;
    t_current_pool = previous_pool;
    return;
  }
  const std::int64_t chunks = std::min(count, num_workers);
  const std::int64_t base = count / chunks;
  const std::int64_t remainder = count % chunks;

  ForJob job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t begin = 0;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t len = base + (c < remainder ? 1 : 0);
      queue_.push_back(Task{&body, begin, begin + len, static_cast<int>(c), &job});
      begin += len;
    }
    job.outstanding = chunks;
  }
  work_available_.notify_all();

  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [&job] { return job.outstanding == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::parallel_for_deterministic(std::int64_t num_tiles,
                                            const std::function<void(std::int64_t)>& body) {
  if (num_tiles <= 0) return;
  // A 1-worker pool (the USB_THREADS=1 serial baseline) and trivial tile
  // counts run inline on the caller; same decomposition, same results.
  if (num_tiles == 1 || size() <= 1) {
    for (std::int64_t tile = 0; tile < num_tiles; ++tile) body(tile);
    return;
  }

  TileJob job;
  job.body = &body;
  job.count = num_tiles;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tile_jobs_.push_back(&job);
  }
  work_available_.notify_all();

  // The caller is a full participant: if no worker is free, it simply drains
  // every tile itself — nested calls from inside a saturated pool can never
  // deadlock.
  run_tiles(job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [&job] {
      return job.completed.load(std::memory_order_acquire) == job.count && job.observers == 0;
    });
    tile_jobs_.erase(std::find(tile_jobs_.begin(), tile_jobs_.end(), &job));
    if (job.error) std::rethrow_exception(job.error);
  }
}

ThreadPool::WorkerContext::WorkerContext(ThreadPool& pool) noexcept
    : previous_pool_(t_current_pool), previous_inside_(t_inside_worker) {
  t_current_pool = &pool;
  t_inside_worker = true;
}

ThreadPool::WorkerContext::~WorkerContext() {
  t_current_pool = previous_pool_;
  t_inside_worker = previous_inside_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

void parallel_for(std::int64_t count, const std::function<void(std::int64_t, std::int64_t)>& body) {
  ThreadPool::global().parallel_for(
      count, [&body](std::int64_t begin, std::int64_t end, int /*worker*/) { body(begin, end); });
}

void parallel_for_deterministic(std::int64_t num_tiles,
                                const std::function<void(std::int64_t)>& body) {
  ThreadPool* pool = t_current_pool != nullptr ? t_current_pool : &ThreadPool::global();
  pool->parallel_for_deterministic(num_tiles, body);
}

}  // namespace usb
