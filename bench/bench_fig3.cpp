// Figure 3 — The 2x2 trigger case where NC/TABOR capture a class feature
// instead of the backdoor trigger, while USB localizes the true patch.
//
// Quantified as the fraction of reversed-mask mass inside the true trigger
// box, for each method, on a CIFAR-10 MiniResNet victim with a 2x2 trigger.
#include <cstdio>

#include "core/usb.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
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
  const std::int64_t trigger_size = 2;

  TrainedModel victim =
      badnet_victim(spec, Architecture::kMiniResNet, trigger_size, /*target=*/0, scale);
  const auto& badnet = dynamic_cast<const BadNet&>(*victim.attack);
  const Dataset probe = make_probe(spec, 300);

  std::printf("Figure 3: 2x2 trigger at (%lld,%lld); acc=%.1f%% ASR=%.1f%%\n\n",
              static_cast<long long>(badnet.position_y()),
              static_cast<long long>(badnet.position_x()), 100.0F * victim.clean_accuracy,
              100.0F * victim.asr);

  NeuralCleanse nc{ReverseOptConfig{}};
  Tabor tabor{TaborConfig{}};
  UsbDetector usb{UsbConfig{}};

  struct Entry {
    const char* name;
    TriggerEstimate estimate;
  };
  Entry entries[] = {{"NC", nc.reverse_engineer_class(victim.network, probe, 0)},
                     {"TABOR", tabor.reverse_engineer_class(victim.network, probe, 0)},
                     {"USB", usb.reverse_engineer_class(victim.network, probe, 0)}};

  Table table({"method", "mask L1", "in-trigger mass", "peak inside box?"});
  std::vector<Tensor> panels{true_trigger_image(victim)};
  for (const Entry& entry : entries) {
    const Tensor& mask = entry.estimate.mask;
    const std::int64_t size = mask.dim(0);
    double inside = 0.0;
    double total = 0.0;
    std::int64_t peak_y = 0;
    std::int64_t peak_x = 0;
    float peak = -1.0F;
    for (std::int64_t y = 0; y < size; ++y) {
      for (std::int64_t x = 0; x < size; ++x) {
        const float value = mask[y * size + x];
        total += value;
        if (value > peak) {
          peak = value;
          peak_y = y;
          peak_x = x;
        }
        if (y >= badnet.position_y() && y < badnet.position_y() + trigger_size &&
            x >= badnet.position_x() && x < badnet.position_x() + trigger_size) {
          inside += value;
        }
      }
    }
    const bool peak_inside = peak_y >= badnet.position_y() &&
                             peak_y < badnet.position_y() + trigger_size &&
                             peak_x >= badnet.position_x() &&
                             peak_x < badnet.position_x() + trigger_size;
    table.add_row({entry.name, format_double(entry.estimate.mask_l1),
                   format_double(total > 0 ? inside / total : 0.0),
                   peak_inside ? "yes" : "no"});
    panels.push_back(entry.estimate.image());
  }
  table.print();
  dump_strip(panels, "fig3_reversed_triggers.ppm");
  return 0;
}
