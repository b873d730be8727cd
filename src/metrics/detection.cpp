#include "metrics/detection.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace usb {

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::vector<double> mad_anomaly_indices(std::span<const double> values) {
  const double med = median(values);
  std::vector<double> deviations(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) deviations[i] = std::abs(values[i] - med);
  const double mad = median(deviations);
  // 1.4826 makes MAD consistent with the standard deviation under normality.
  const double scale = 1.4826 * mad;
  std::vector<double> anomaly(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    anomaly[i] = scale > 1e-12 ? std::abs(values[i] - med) / scale : 0.0;
  }
  return anomaly;
}

DetectionVerdict decide_backdoor(std::span<const double> per_class_norms, double threshold,
                                 double ratio_max, double decisive_ratio) {
  // Peel the non-finite (excluded) classes out of the population first.
  std::vector<double> finite;
  std::vector<std::size_t> original_index;
  finite.reserve(per_class_norms.size());
  original_index.reserve(per_class_norms.size());
  for (std::size_t k = 0; k < per_class_norms.size(); ++k) {
    if (std::isfinite(per_class_norms[k])) {
      finite.push_back(per_class_norms[k]);
      original_index.push_back(k);
    }
  }
  const std::vector<double> finite_anomaly = mad_anomaly_indices(finite);
  const double med = median(finite);

  DetectionVerdict verdict;
  verdict.norms.assign(per_class_norms.begin(), per_class_norms.end());
  verdict.anomaly.assign(per_class_norms.size(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t j = 0; j < finite.size(); ++j) {
    const std::size_t k = original_index[j];
    verdict.anomaly[k] = finite_anomaly[j];
    // Backdoor shortcuts shrink the required perturbation: low-side only,
    // and decisively below the class median. The decisive-ratio clause
    // rescues true shortcuts when the remaining norms are too spread out
    // for MAD to score them.
    const bool well_below = finite[j] < ratio_max * med;
    const bool mad_outlier = finite_anomaly[j] > threshold;
    const bool decisive = finite[j] < decisive_ratio * med;
    if (well_below && (mad_outlier || decisive)) {
      verdict.flagged_classes.push_back(static_cast<std::int64_t>(k));
    }
  }
  verdict.backdoored = !verdict.flagged_classes.empty();
  return verdict;
}

TargetOutcome classify_target(const DetectionVerdict& verdict, std::int64_t true_target) {
  if (!verdict.backdoored) return TargetOutcome::kNotDetected;
  const bool contains_target =
      std::find(verdict.flagged_classes.begin(), verdict.flagged_classes.end(), true_target) !=
      verdict.flagged_classes.end();
  if (!contains_target) return TargetOutcome::kWrong;
  return verdict.flagged_classes.size() == 1 ? TargetOutcome::kCorrect
                                             : TargetOutcome::kCorrectSet;
}

void CaseCounts::record(const DetectionVerdict& verdict, std::int64_t true_target) {
  if (verdict.backdoored) {
    ++detected_backdoored;
  } else {
    ++detected_clean;
  }
  // Reversed-trigger norm statistic: for backdoored models the paper reports
  // the norm of the trigger recovered for the true target class; for clean
  // models the per-class average.
  if (true_target >= 0 && true_target < static_cast<std::int64_t>(verdict.norms.size())) {
    l1_sum += verdict.norms[static_cast<std::size_t>(true_target)];
    ++l1_count;
  } else if (!verdict.norms.empty()) {
    double mean = 0.0;
    for (const double v : verdict.norms) mean += v;
    l1_sum += mean / static_cast<double>(verdict.norms.size());
    ++l1_count;
  }
  switch (classify_target(verdict, true_target)) {
    case TargetOutcome::kNotDetected: break;
    case TargetOutcome::kCorrect: ++correct; break;
    case TargetOutcome::kCorrectSet: ++correct_set; break;
    case TargetOutcome::kWrong: ++wrong; break;
  }
}

}  // namespace usb
