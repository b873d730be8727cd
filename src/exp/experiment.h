// Detection experiments: one function call per paper-table row.
//
// A "case" is a population of models (clean or backdoored with one attack
// configuration) evaluated by a set of detectors. The output reproduces the
// paper's table layout: accuracy, ASR, per-method reversed-trigger L1 norm,
// model-detection counts and target-class-detection counts.
#pragma once

#include <string>
#include <vector>

#include "defenses/detector.h"
#include "exp/model_zoo.h"
#include "metrics/detection.h"
#include "service/detection_service.h"

namespace usb {

enum class MethodKind { kNc, kTabor, kUsb };

[[nodiscard]] std::string to_string(MethodKind method);

/// Per-method optimization budget, pre-scaled for USB_FAST runs.
struct MethodBudget {
  std::int64_t nc_steps = 150;
  std::int64_t tabor_steps = 150;
  std::int64_t usb_refine_steps = 150;
  std::int64_t uap_max_passes = 3;

  [[nodiscard]] static MethodBudget from_scale(const ExperimentScale& scale);
};

struct DetectionCaseSpec {
  std::string label;  // e.g. "Backdoored (2x2 trigger)"
  /// `{}` lets a designated initializer omit it without a warning:
  /// bench_detection's case lists take it from their table.
  DatasetSpec dataset{};
  Architecture arch = Architecture::kMiniResNet;
  AttackKind attack = AttackKind::kNone;
  std::int64_t trigger_size = 0;
  double poison_rate = 0.08;
  /// |X| of Alg. 1; also the probe budget given to NC/TABOR (the paper gives
  /// them the full training set — see README "Paper → repo substitutions").
  std::int64_t probe_size = 300;
};

struct MethodRow {
  std::string method;
  CaseCounts counts;
};

struct DetectionCaseResult {
  DetectionCaseSpec spec;
  double mean_accuracy = 0.0;
  double mean_asr = 0.0;
  std::vector<MethodRow> methods;
};

/// Builds a detector of the given kind under the given budget.
[[nodiscard]] DetectorPtr make_detector(MethodKind method, const MethodBudget& budget);

/// Trains/loads `scale.models_per_case` models for the case, then submits
/// every (model x method) scan to `service` at once — scans of one case
/// overlap on the service pool instead of running back to back, and each
/// model's probe is resolved through the service's content-addressed
/// ProbeStore (shared across the methods scanning it, and across the cases
/// of one table, since bench_detection runs them all on one service).
/// Backdoor target class rotates with the model index (the paper varies
/// triggers per trained model). Results are bit-identical to the historical
/// sequential detect() loop.
[[nodiscard]] DetectionCaseResult run_detection_case(const DetectionCaseSpec& spec,
                                                     const ExperimentScale& scale,
                                                     const std::vector<MethodKind>& methods,
                                                     DetectionService& service);

/// Prints results in the paper's table layout.
void print_detection_table(const std::string& title,
                           const std::vector<DetectionCaseResult>& results);

}  // namespace usb
