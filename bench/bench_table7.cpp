// Table 7 — Running time of backdoor detection per class (EfficientNet on
// the ImageNet substitute).
//
// The paper reports GPU minutes per class: NC ~23m, TABOR ~35-48m, USB
// ~4.5m, with USB's targeted-UAP cost excluded because one UAP serves all
// models of an architecture (Section 4.4). We report the same accounting on
// CPU seconds: NC total, TABOR total, USB refine-only (UAP amortized), and
// additionally USB's one-off UAP cost so the amortization claim is
// auditable. Two time columns close the table: "total" sums the per-class
// wall clocks (the paper's accounting — work performed), while "wall" is
// DetectionReport::wall_seconds, the end-to-end scan time a caller actually
// waits; under the parallel scan the per-class sum double-counts concurrent
// classes, so the two diverge by up to the pool width.
#include <cstdio>

#include "core/usb.h"
#include "exp/experiment.h"
#include "fig_common.h"
#include "utils/table.h"
#include "utils/timer.h"

int main(int argc, char** argv) {
  using namespace usb;
  figbench::BenchArgs(argc, argv).finish();  // no arguments; typos abort
  const ExperimentScale scale = ExperimentScale::from_env();
  const MethodBudget budget = MethodBudget::from_scale(scale);
  const DatasetSpec spec = DatasetSpec::imagenet_like();

  ModelCaseSpec model_spec;
  model_spec.dataset = spec;
  model_spec.arch = Architecture::kMiniEffNet;
  model_spec.attack.kind = AttackKind::kBadNet;
  model_spec.attack.trigger_size = 4;
  model_spec.attack.poison_rate = 0.10;
  model_spec.scale = scale;
  TrainedModel model = train_or_load(model_spec);
  const Dataset probe = make_probe(spec, 500);

  std::printf("Table 7: per-class detection time, MiniEffNet on ImageNet-like 48x48\n");
  std::printf("victim: BadNet 4x4 (scaled 20x20), acc=%.2f%%, ASR=%.2f%%\n\n",
              100.0F * model.clean_accuracy, 100.0F * model.asr);

  Table table(
      {"Method", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "total", "wall"});

  auto add_row = [&table](const std::string& method, const std::vector<double>& seconds,
                          double wall_seconds) {
    std::vector<std::string> row{method};
    double total = 0.0;
    for (const double s : seconds) {
      row.push_back(format_minutes_seconds(s));
      total += s;
    }
    row.push_back(format_minutes_seconds(total));
    row.push_back(format_minutes_seconds(wall_seconds));
    table.add_row(row);
  };

  for (const MethodKind method : {MethodKind::kNc, MethodKind::kTabor}) {
    const DetectionReport report = make_detector(method, budget)->detect(model.network, probe);
    add_row(to_string(method), report.per_class_seconds, report.wall_seconds);
  }

  // USB with the paper's amortized accounting: craft the UAPs once (timed
  // separately), then per-class time covers only the Alg. 2 refinement. Its
  // config is spelled out because targeted_uap takes its `uap` part.
  UsbConfig usb_config;
  usb_config.refine_steps = budget.usb_refine_steps;
  usb_config.uap.max_passes = budget.uap_max_passes;
  UsbDetector usb{usb_config};

  std::vector<Tensor> uaps;
  double uap_total = 0.0;
  model.network.freeze();  // Alg. 1 runs on frozen networks
  for (std::int64_t t = 0; t < spec.num_classes; ++t) {
    const Timer timer;
    uaps.push_back(targeted_uap(model.network, probe, t, usb_config.uap).perturbation);
    uap_total += timer.seconds();
  }
  {
    std::vector<double> seconds;
    const Timer usb_wall;  // sequential loop: wall == per-class sum here
    for (std::int64_t t = 0; t < spec.num_classes; ++t) {
      const Timer timer;
      (void)usb.reverse_engineer_class(model.network, probe, t,
                                       uaps[static_cast<std::size_t>(t)]);
      seconds.push_back(timer.seconds());
    }
    add_row("USB", seconds, usb_wall.seconds());
  }
  table.print();
  std::printf(
      "\nUSB one-off targeted-UAP generation (amortized across models of the same\n"
      "architecture, Section 4.4): %s total for all 10 classes.\n",
      format_minutes_seconds(uap_total).c_str());
  return 0;
}
