// Figure 4 — Original vs reversed triggers for the 2x2 and 3x3 cases
// (paper appendix visualization). One strip per trigger size:
// [original | NC | TABOR | USB].
#include <cstdio>

#include "core/usb.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "fig_common.h"
#include "utils/table.h"

namespace {

using namespace usb;
using namespace usb::figbench;

void run_case(std::int64_t trigger_size, const ExperimentScale& scale) {
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  TrainedModel victim =
      badnet_victim(spec, Architecture::kMiniResNet, trigger_size, /*target=*/0, scale);
  const Dataset probe = make_probe(spec, 300);

  NeuralCleanse nc{ReverseOptConfig{}};
  Tabor tabor{TaborConfig{}};
  UsbDetector usb{UsbConfig{}};
  const TriggerEstimate nc_est = nc.reverse_engineer_class(victim.network, probe, 0);
  const TriggerEstimate tb_est = tabor.reverse_engineer_class(victim.network, probe, 0);
  const TriggerEstimate us_est = usb.reverse_engineer_class(victim.network, probe, 0);

  std::printf("%lldx%lld trigger: mask L1 -> NC %.2f, TABOR %.2f, USB %.2f\n",
              static_cast<long long>(trigger_size), static_cast<long long>(trigger_size),
              nc_est.mask_l1, tb_est.mask_l1, us_est.mask_l1);
  dump_strip({true_trigger_image(victim), nc_est.image(), tb_est.image(), us_est.image()},
             "fig4_trigger" + std::to_string(trigger_size) + ".ppm");
}

}  // namespace

int main(int argc, char** argv) {
  // Strict shared arg handling (fig_common.h): this bench takes no
  // arguments, so anything passed is a typo and aborts instead of being
  // silently ignored.
  usb::figbench::BenchArgs(argc, argv).finish();
  const ExperimentScale scale = ExperimentScale::from_env();
  std::printf("Figure 4: original vs reversed triggers, 2x2 and 3x3 "
              "(panels: original, NC, TABOR, USB)\n\n");
  run_case(2, scale);
  run_case(3, scale);
  return 0;
}
