// Figure 2 — Original vs reversed triggers, CIFAR-10 and ImageNet.
//
// One strip per dataset: [original trigger | NC | TABOR | USB], each panel
// the full-size trigger image pattern*mask. Norms and trigger-location
// overlap are printed so the visual story is auditable in text.
#include <cstdio>

#include "core/usb.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "fig_common.h"
#include "utils/table.h"

namespace {

using namespace usb;
using namespace usb::figbench;

/// Fraction of reversed-mask mass inside the true trigger's bounding box.
double mask_overlap(const Tensor& mask, const BadNet& attack, std::int64_t trigger_size) {
  const std::int64_t size = mask.dim(0);
  double inside = 0.0;
  double total = 0.0;
  for (std::int64_t y = 0; y < size; ++y) {
    for (std::int64_t x = 0; x < size; ++x) {
      const double value = mask[y * size + x];
      total += value;
      if (y >= attack.position_y() && y < attack.position_y() + trigger_size &&
          x >= attack.position_x() && x < attack.position_x() + trigger_size) {
        inside += value;
      }
    }
  }
  return total > 0.0 ? inside / total : 0.0;
}

void run_dataset(const DatasetSpec& spec, Architecture arch, std::int64_t trigger_size,
                 std::int64_t probe_size, const std::string& tag,
                 const ExperimentScale& scale) {
  TrainedModel victim = badnet_victim(spec, arch, trigger_size, /*target=*/0, scale);
  const auto& badnet = dynamic_cast<const BadNet&>(*victim.attack);
  const Dataset probe = make_probe(spec, probe_size);

  std::printf("%s: acc=%.1f%% ASR=%.1f%%, true trigger %lldx%lld at (%lld,%lld)\n",
              tag.c_str(), 100.0F * victim.clean_accuracy, 100.0F * victim.asr,
              static_cast<long long>(trigger_size), static_cast<long long>(trigger_size),
              static_cast<long long>(badnet.position_y()),
              static_cast<long long>(badnet.position_x()));

  NeuralCleanse nc{ReverseOptConfig{}};
  Tabor tabor{TaborConfig{}};
  UsbDetector usb{UsbConfig{}};
  const TriggerEstimate nc_estimate = nc.reverse_engineer_class(victim.network, probe, 0);
  const TriggerEstimate tabor_estimate = tabor.reverse_engineer_class(victim.network, probe, 0);
  const TriggerEstimate usb_estimate = usb.reverse_engineer_class(victim.network, probe, 0);

  Table table({"panel", "mask L1", "overlap with true trigger"});
  table.add_row({"Original", "-", "1.00"});
  table.add_row({"NC", format_double(nc_estimate.mask_l1),
                 format_double(mask_overlap(nc_estimate.mask, badnet, trigger_size))});
  table.add_row({"TABOR", format_double(tabor_estimate.mask_l1),
                 format_double(mask_overlap(tabor_estimate.mask, badnet, trigger_size))});
  table.add_row({"USB", format_double(usb_estimate.mask_l1),
                 format_double(mask_overlap(usb_estimate.mask, badnet, trigger_size))});
  table.print();

  dump_strip({true_trigger_image(victim), nc_estimate.image(), tabor_estimate.image(),
              usb_estimate.image()},
             "fig2_" + tag + ".ppm");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Strict shared arg handling (fig_common.h): this bench takes no
  // arguments, so anything passed is a typo and aborts instead of being
  // silently ignored.
  usb::figbench::BenchArgs(argc, argv).finish();
  const ExperimentScale scale = ExperimentScale::from_env();
  std::printf("Figure 2: original vs reversed triggers (panels: original, NC, TABOR, USB)\n\n");
  run_dataset(DatasetSpec::cifar10_like(), Architecture::kMiniResNet, 3, 300, "cifar10", scale);
  run_dataset(DatasetSpec::imagenet_like(), Architecture::kMiniEffNet, 4, 500, "imagenet", scale);
  return 0;
}
