// The yardstick of the scan-memory tests: how many TensorArena bytes one
// stage of a scan holds. A scan lends each running stage an arena of its
// own, so a whole scan's arena bytes stay within a few stages' worth
// however many classes it has.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "defenses/scan_plan.h"
#include "utils/memory_budget.h"
#include "utils/thread_pool.h"

namespace usb {

/// Arena bytes the process holds now (MemoryBudget's kArenas ledger).
inline std::int64_t arena_bytes() {
  return MemoryBudget::process().bytes(MemoryBudget::Category::kArenas);
}

/// The most arena bytes any one stage of `plan`'s scan holds, above what
/// the process held before it. The scan runs through a one-thread detect()
/// with early exit off, so its stages run one at a time and one class is
/// live at a time; every task is wrapped to read the ledger as each of its
/// stages ends, while that stage's arena is still lent and at its largest.
inline std::int64_t one_stage_arena_bytes(ScanPlan plan, Network& model, const Dataset& probe) {
  plan.options.early_exit.enabled = false;
  struct Reading {
    std::int64_t baseline = arena_bytes();
    std::int64_t most = 0;
    void take() { most = std::max(most, arena_bytes() - baseline); }
  };
  class ReadingTask final : public ClassRefineTask {
   public:
    ReadingTask(std::unique_ptr<ClassRefineTask> inner, Reading& reading)
        : inner_(std::move(inner)), reading_(reading) {}
    std::int64_t run_steps(std::int64_t steps, TensorArena& arena) override {
      const std::int64_t ran = inner_->run_steps(steps, arena);
      reading_.take();
      return ran;
    }
    [[nodiscard]] double current_mask_l1() const override { return inner_->current_mask_l1(); }
    [[nodiscard]] TriggerEstimate finalize(TensorArena& arena) override {
      TriggerEstimate estimate = inner_->finalize(arena);
      reading_.take();
      return estimate;
    }

   private:
    std::unique_ptr<ClassRefineTask> inner_;
    Reading& reading_;
  };

  Reading reading;
  plan.make_task = [&reading, make = std::move(plan.make_task)](
                       const Network& network, const Dataset& data, const ClassScanJob& job,
                       TensorArena& arena) -> std::unique_ptr<ClassRefineTask> {
    auto inner = make(network, data, job, arena);
    reading.take();
    return std::make_unique<ReadingTask>(std::move(inner), reading);
  };
  ThreadPool pool(1);
  (void)run_scan_plan(plan, model, probe, pool);
  return reading.most;
}

}  // namespace usb
