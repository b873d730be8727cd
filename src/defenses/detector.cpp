#include "defenses/detector.h"

#include <stdexcept>

#include "defenses/scan_plan.h"

namespace usb {

std::string to_string(ClassScanState state) {
  switch (state) {
    case ClassScanState::kPending: return "pending";
    case ClassScanState::kRefining: return "refining";
    case ClassScanState::kFinalized: return "finalized";
    case ClassScanState::kNumericallyUnstable: return "numerically_unstable";
  }
  return "unknown";
}

bool DetectionReport::complete() const noexcept {
  if (per_class_state.size() != per_class.size()) return false;
  for (const ClassScanState state : per_class_state) {
    if (state != ClassScanState::kFinalized && state != ClassScanState::kNumericallyUnstable) {
      return false;
    }
  }
  return true;
}

std::vector<std::int64_t> DetectionReport::quarantined_classes() const {
  std::vector<std::int64_t> quarantined;
  for (std::size_t t = 0; t < per_class_state.size(); ++t) {
    if (per_class_state[t] == ClassScanState::kNumericallyUnstable) {
      quarantined.push_back(static_cast<std::int64_t>(t));
    }
  }
  return quarantined;
}

DetectionReport Detector::detect(Network& model, const Dataset& probe, ThreadPool& pool) const {
  const ScanPlan scan = plan();
  return run_scan_plan(scan, model, probe, pool);
}

TriggerEstimate Detector::reverse_engineer_class(Network& model, const Dataset& probe,
                                                 std::int64_t target_class) const {
  model.freeze();
  const ScanPlan scan = plan();
  const ProbeBatchCache cache(probe);
  TensorArena arena;
  const std::unique_ptr<ClassRefineTask> task =
      scan.make_task(model, probe, make_class_job(scan.options, target_class, cache), arena);
  (void)task->run_steps(scan.total_steps, arena);
  return task->finalize(arena);
}

Tensor TriggerEstimate::image() const {
  Tensor image(pattern.shape());
  const std::int64_t spatial = pattern.dim(1) * pattern.dim(2);
  for (std::int64_t c = 0; c < pattern.dim(0); ++c) {
    for (std::int64_t s = 0; s < spatial; ++s) {
      image[c * spatial + s] = pattern[c * spatial + s] * mask[s];
    }
  }
  return image;
}

Tensor DetectionReport::reversed_trigger(std::int64_t k) const {
  if (k < 0 || k >= static_cast<std::int64_t>(per_class.size())) {
    throw std::out_of_range("reversed_trigger: class index out of range");
  }
  return per_class[static_cast<std::size_t>(k)].image();
}

}  // namespace usb
