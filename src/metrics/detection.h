// Detection decision rules and population bookkeeping.
//
// All three detectors (NC, TABOR, USB) reduce a model to one number per
// class: the L1 norm of the reverse-engineered trigger mask for that class.
// A backdoored class is a LOW-side outlier (the shortcut needs a smaller
// perturbation). Following Neural Cleanse, outliers are scored with the
// Median Absolute Deviation: anomaly(k) = |v_k - median| / (1.4826 * MAD),
// flagged when anomaly > threshold and v_k < median.
//
// Paper metrics (Section 4.1):
//  - Model detection: clean vs backdoored verdict per model.
//  - Target class detection: Correct (exactly the true target), Correct Set
//    (true target among several flagged), Wrong (flagged but true target
//    missing).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace usb {

/// Median of a copy of `values` (empty -> 0).
[[nodiscard]] double median(std::span<const double> values);

/// MAD-based anomaly index per value (consistency constant 1.4826).
[[nodiscard]] std::vector<double> mad_anomaly_indices(std::span<const double> values);

struct DetectionVerdict {
  bool backdoored = false;
  std::vector<std::int64_t> flagged_classes;  // low-side outliers
  std::vector<double> norms;                  // per-class statistic
  std::vector<double> anomaly;                // per-class anomaly index
};

/// Applies the MAD rule to per-class norms. A class is flagged when its
/// norm is below `ratio_max * median` AND either its anomaly index exceeds
/// `threshold` or the norm is decisively small (below `decisive_ratio *
/// median`). The ratio conditions encode the paper's core observation
/// directly — a backdoor shortcut needs a *much* smaller perturbation — and
/// compensate for MAD's noisiness on as few as 10 classes (a 5x-below-
/// median trigger is a shortcut even when the other norms are spread out).
///
/// Only the FINITE norms enter the rule. Non-finite entries mark classes
/// excluded from the reduction — quarantined (numerically unstable) or
/// unfinished (deadline/fault) classes, see ClassScanState — and are peeled
/// out BEFORE the median/MAD statistics, so one diverged class cannot shift
/// the cutoff for every other class (nor reach std::sort as a NaN). Flagged
/// indices refer to the original positions; peeled entries keep their raw
/// (non-finite) norm, get a NaN anomaly index, and are never flagged.
[[nodiscard]] DetectionVerdict decide_backdoor(std::span<const double> per_class_norms,
                                               double threshold = 2.0, double ratio_max = 0.45,
                                               double decisive_ratio = 0.22);

enum class TargetOutcome {
  kNotDetected,  // verdict says clean
  kCorrect,      // exactly the true target flagged
  kCorrectSet,   // several flagged, true target included
  kWrong         // flagged, but true target missing
};

/// Classifies a verdict on a model whose true backdoor target is
/// `true_target` (pass -1 for clean models; any flag is then a false
/// positive and the outcome is kWrong).
[[nodiscard]] TargetOutcome classify_target(const DetectionVerdict& verdict,
                                            std::int64_t true_target);

/// Aggregated counts for one table row (one population of trained models
/// evaluated by one method), in the paper's column layout.
struct CaseCounts {
  std::string method;
  std::int64_t detected_clean = 0;       // "Model Detection / Clean"
  std::int64_t detected_backdoored = 0;  // "Model Detection / Backdoored"
  std::int64_t correct = 0;              // "Target Class Detection / Correct"
  std::int64_t correct_set = 0;          // ".../ Correct Set"
  std::int64_t wrong = 0;                // ".../ Wrong"
  double l1_sum = 0.0;                   // reversed-trigger L1, summed
  std::int64_t l1_count = 0;

  /// Records one model's verdict. For backdoored populations `true_target`
  /// is the injected class; for clean populations pass -1.
  void record(const DetectionVerdict& verdict, std::int64_t true_target);

  [[nodiscard]] double mean_l1() const noexcept {
    return l1_count == 0 ? 0.0 : l1_sum / static_cast<double>(l1_count);
  }
};

}  // namespace usb
