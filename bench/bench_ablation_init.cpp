// Ablation 1 (README "Paper → repo substitutions") — UAP initialization vs
// random initialization.
//
// The paper's central design claim: starting Alg. 2 from the targeted UAP
// (which already rides the backdoor shortcut) beats the NC-style random
// start. This bench runs USB twice on the same victims — once as published,
// once with random_init=true (same loss, same optimizer, only the starting
// point differs) — and compares verdicts and target-class norms.
#include <cstdio>

#include "core/usb.h"
#include "fig_common.h"
#include "utils/table.h"

int main(int argc, char** argv) {
  // Strict shared arg handling (fig_common.h): this bench takes no
  // arguments, so anything passed is a typo and aborts instead of being
  // silently ignored.
  usb::figbench::BenchArgs(argc, argv).finish();
  using namespace usb;
  using namespace usb::figbench;
  const ExperimentScale scale = ExperimentScale::from_env();
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  const Dataset probe = make_probe(spec, 300);

  std::printf("Ablation: Alg. 2 initialization (UAP vs random), CIFAR-10-like MiniResNet\n\n");
  Table table({"victim", "variant", "verdict", "target L1", "median L1", "target/median"});

  for (const std::int64_t trigger_size : {2, 3}) {
    TrainedModel victim =
        badnet_victim(spec, Architecture::kMiniResNet, trigger_size, /*target=*/0, scale);
    const std::string victim_label =
        std::to_string(trigger_size) + "x" + std::to_string(trigger_size) + " BadNet";

    for (const bool random_init : {false, true}) {
      UsbConfig config;
      config.random_init = random_init;
      UsbDetector usb{config};
      const DetectionReport report = usb.detect(victim.network, probe);
      const double target_norm = report.verdict.norms[0];
      const double med = median(report.verdict.norms);
      table.add_row({victim_label, random_init ? "random init" : "UAP init (USB)",
                     report.verdict.backdoored ? "BACKDOORED" : "clean",
                     format_double(target_norm), format_double(med),
                     format_double(med > 0 ? target_norm / med : 0.0)});
    }
  }
  table.print();
  std::printf("\nLower target/median = sharper separation. The UAP start should match or beat\n"
              "the random start, with the gap widening on harder victims (paper Fig. 1, A.4).\n");
  return 0;
}
