#include "exp/experiment.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/usb.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "utils/logging.h"
#include "utils/table.h"

namespace usb {

std::string to_string(MethodKind method) {
  switch (method) {
    case MethodKind::kNc: return "NC";
    case MethodKind::kTabor: return "TABOR";
    case MethodKind::kUsb: return "USB";
  }
  throw std::invalid_argument("unknown method");
}

MethodBudget MethodBudget::from_scale(const ExperimentScale& scale) {
  MethodBudget budget;
  if (scale.fast) {
    budget.nc_steps = 60;
    budget.tabor_steps = 60;
    budget.usb_refine_steps = 60;
    budget.uap_max_passes = 2;
  }
  // Fine-grained overrides for time-boxed runs.
  budget.nc_steps = env_int("USB_NC_STEPS", budget.nc_steps);
  budget.tabor_steps = env_int("USB_TABOR_STEPS", budget.tabor_steps);
  budget.usb_refine_steps = env_int("USB_USB_STEPS", budget.usb_refine_steps);
  budget.uap_max_passes = env_int("USB_UAP_PASSES", budget.uap_max_passes);
  return budget;
}

DetectorPtr make_detector(MethodKind method, const MethodBudget& budget) {
  switch (method) {
    case MethodKind::kNc: {
      ReverseOptConfig config;
      config.steps = budget.nc_steps;
      return std::make_unique<NeuralCleanse>(config);
    }
    case MethodKind::kTabor: {
      TaborConfig config;
      config.base.steps = budget.tabor_steps;
      return std::make_unique<Tabor>(config);
    }
    case MethodKind::kUsb: {
      UsbConfig config;
      config.refine_steps = budget.usb_refine_steps;
      config.uap.max_passes = budget.uap_max_passes;
      return std::make_unique<UsbDetector>(config);
    }
  }
  throw std::invalid_argument("unknown method");
}

DetectionCaseResult run_detection_case(const DetectionCaseSpec& spec,
                                       const ExperimentScale& scale,
                                       const std::vector<MethodKind>& methods,
                                       DetectionService& service) {
  DetectionCaseResult result;
  result.spec = spec;
  for (const MethodKind method : methods) {
    result.methods.push_back(MethodRow{to_string(method), CaseCounts{to_string(method)}});
  }

  const MethodBudget budget = MethodBudget::from_scale(scale);

  // Phase 1 — train or load the whole population (zoo-cached). Each victim
  // is frozen once and shared by every method's scan of it.
  std::vector<std::shared_ptr<const Network>> victims;
  std::vector<std::int64_t> true_targets;
  victims.reserve(static_cast<std::size_t>(scale.models_per_case));
  for (std::int64_t index = 0; index < scale.models_per_case; ++index) {
    ModelCaseSpec model_spec;
    model_spec.dataset = spec.dataset;
    model_spec.arch = spec.arch;
    model_spec.model_index = index;
    model_spec.scale = scale;
    model_spec.attack.kind = spec.attack;
    model_spec.attack.trigger_size = spec.trigger_size;
    model_spec.attack.poison_rate = spec.poison_rate;
    // The paper trains each model with its own randomly placed/coloured
    // trigger and target; rotate the target with the model index.
    model_spec.attack.target_class = index % spec.dataset.num_classes;

    TrainedModel trained = train_or_load(model_spec);
    result.mean_accuracy += trained.clean_accuracy;
    result.mean_asr += trained.asr;
    auto victim = std::make_shared<Network>(std::move(trained.network));
    victim->freeze();
    victims.push_back(std::move(victim));
    true_targets.push_back(spec.attack == AttackKind::kNone ? -1
                                                           : model_spec.attack.target_class);
  }

  // Phase 2 — submit every (model x method) scan at once. The probe is
  // named by content address, so the service materializes each model's
  // probe once for all methods (and reuses it for the caller's other cases
  // on the same service whose probes share its coordinates). The methods'
  // scans of one victim share its frozen network, so the queue holds no
  // weights beyond the population itself.
  std::vector<ScanHandle> handles;
  handles.reserve(victims.size() * methods.size());
  for (std::int64_t index = 0; index < scale.models_per_case; ++index) {
    for (const MethodKind method : methods) {
      ScanRequest request;
      request.model = victims[static_cast<std::size_t>(index)];
      request.detector = make_detector(method, budget);
      request.probe_key = ProbeKey{spec.dataset, spec.probe_size,
                                   hash_combine(0x9e0beULL, static_cast<std::uint64_t>(index))};
      handles.push_back(service.submit(std::move(request)));
    }
  }

  // Phase 3 — ordered reduction, as if the legacy loop had run.
  std::size_t handle_index = 0;
  for (std::int64_t index = 0; index < scale.models_per_case; ++index) {
    for (std::size_t m = 0; m < methods.size(); ++m, ++handle_index) {
      const ScanOutcome& outcome = handles[handle_index].wait();
      if (outcome.status != ScanStatus::kDone) {
        throw std::runtime_error("run_detection_case: scan " + to_string(outcome.status) +
                                 (outcome.error.empty() ? "" : ": " + outcome.error));
      }
      const DetectionReport& report = outcome.report;
      const std::int64_t true_target = true_targets[static_cast<std::size_t>(index)];
      result.methods[m].counts.record(report.verdict, true_target);
      USB_LOG(Info) << spec.label << " model " << index << " " << report.method
                    << (report.verdict.backdoored ? " -> backdoored" : " -> clean")
                    << " (true target " << true_target << ")";
    }
  }

  const double n = static_cast<double>(scale.models_per_case);
  result.mean_accuracy /= n;
  result.mean_asr /= n;
  return result;
}

void print_detection_table(const std::string& title,
                           const std::vector<DetectionCaseResult>& results) {
  std::printf("\n=== %s ===\n", title.c_str());
  Table table({"Model", "Accuracy", "ASR", "Method", "L1 norm", "Clean", "Backdoored", "Correct",
               "Correct Set", "Wrong"});
  for (const DetectionCaseResult& result : results) {
    const bool is_clean = result.spec.attack == AttackKind::kNone;
    bool first = true;
    for (const MethodRow& row : result.methods) {
      table.add_row({first ? result.spec.label : "",
                     first ? format_percent(result.mean_accuracy) : "",
                     first ? (is_clean ? "N/A" : format_percent(result.mean_asr)) : "",
                     row.method, format_double(row.counts.mean_l1()),
                     std::to_string(row.counts.detected_clean),
                     std::to_string(row.counts.detected_backdoored),
                     is_clean ? "N/A" : std::to_string(row.counts.correct),
                     is_clean ? "N/A" : std::to_string(row.counts.correct_set),
                     is_clean ? "N/A" : std::to_string(row.counts.wrong)});
      first = false;
    }
  }
  table.print();
}

}  // namespace usb
