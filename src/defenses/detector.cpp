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

DetectionReport Detector::detect(Network& model, const Dataset& probe) const {
  const ScanPlan scan = plan();
  return run_scan_plan(scan, model, probe);
}

TriggerEstimate Detector::reverse_engineer_class(Network& model, const Dataset& probe,
                                                 std::int64_t target_class) const {
  model.freeze();
  const ScanPlan scan = plan();
  const ProbeBatchCache cache(probe);
  const std::unique_ptr<ClassRefineTask> task =
      scan.make_task(model, probe, make_class_job(scan.options, target_class, cache));
  (void)task->run_steps(scan.total_steps);
  return task->finalize();
}

Tensor DetectionReport::reversed_trigger(std::int64_t k) const {
  if (k < 0 || k >= static_cast<std::int64_t>(per_class.size())) {
    throw std::out_of_range("reversed_trigger: class index out of range");
  }
  const TriggerEstimate& estimate = per_class[static_cast<std::size_t>(k)];
  const std::int64_t channels = estimate.pattern.dim(0);
  const std::int64_t height = estimate.pattern.dim(1);
  const std::int64_t width = estimate.pattern.dim(2);
  Tensor image(Shape{channels, height, width});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < height; ++y) {
      for (std::int64_t x = 0; x < width; ++x) {
        image[(c * height + y) * width + x] =
            estimate.pattern[(c * height + y) * width + x] * estimate.mask[y * width + x];
      }
    }
  }
  return image;
}

}  // namespace usb
