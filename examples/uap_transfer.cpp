// UAP transfer (paper Section 4.4): a targeted UAP crafted on one model is
// reused as the Alg. 2 starting point for OTHER models of the same
// architecture, skipping Alg. 1 entirely on the later models.
//
// This is the paper's time-accounting argument for Table 7: "we only need
// to generate it once". The example measures detection quality and wall
// clock with and without transfer on a second backdoored victim.
#include <cstdio>

#include "attacks/badnet.h"
#include "core/targeted_uap.h"
#include "core/usb.h"
#include "data/synthetic.h"
#include "nn/trainer.h"
#include "utils/table.h"
#include "utils/timer.h"

namespace {

usb::Network train_victim(const usb::DatasetSpec& spec, std::uint64_t seed,
                          std::int64_t target, float* asr_out) {
  using namespace usb;
  const Dataset train_set = generate_dataset(spec, 1600, seed);
  const Dataset test_set = generate_dataset(spec, 300, seed + 1);
  BadNetConfig config;
  config.trigger_size = 3;
  config.target_class = target;
  config.poison_rate = 0.08;
  config.seed = seed + 2;
  BadNet attack(config, spec);
  Network model = make_network(Architecture::kMiniResNet, spec.channels, spec.image_size,
                               spec.num_classes, seed + 3);
  TrainConfig train_config;
  train_config.epochs = 4;
  train_config.seed = seed + 4;
  (void)attack.train_backdoored(model, train_set, train_config);
  *asr_out = attack.success_rate(model, test_set);
  return model;
}

}  // namespace

int main() {
  using namespace usb;
  const DatasetSpec spec = DatasetSpec::cifar10_like();
  const std::int64_t target = 4;
  const Dataset probe = generate_dataset(spec, 300, /*seed=*/77);

  float asr_a = 0.0F;
  float asr_b = 0.0F;
  Network model_a = train_victim(spec, 41, target, &asr_a);
  Network model_b = train_victim(spec, 51, target, &asr_b);  // same arch, fresh seeds
  std::printf("two MiniResNet victims, BadNet 3x3 on class %lld: ASR_A=%.1f%% ASR_B=%.1f%%\n\n",
              static_cast<long long>(target), 100.0F * asr_a, 100.0F * asr_b);

  UsbDetector usb{UsbConfig{}};
  model_a.freeze();  // Alg. 1 and the detectors run on frozen networks
  model_b.freeze();

  // Craft the UAP once, on model A.
  Timer timer;
  const TargetedUapResult uap = targeted_uap(model_a, probe, target);
  const double craft_seconds = timer.seconds();
  std::printf("UAP crafted on model A in %.1fs (fooling %.2f on A)\n",
              craft_seconds, uap.fooling_rate);
  std::printf("same UAP on model B without any adaptation: fooling %.2f\n\n",
              uap_fooling_rate(model_b, probe, uap.perturbation, target));

  Table table({"model B detection", "target L1", "fooling rate", "time [s]"});
  {
    timer.reset();
    const TriggerEstimate estimate = usb.reverse_engineer_class(model_b, probe, target);
    table.add_row({"full pipeline (Alg.1 + Alg.2)", format_double(estimate.mask_l1),
                   format_double(estimate.fooling_rate), format_double(timer.seconds(), 1)});
  }
  {
    timer.reset();
    const TriggerEstimate estimate =
        usb.reverse_engineer_class(model_b, probe, target, uap.perturbation);
    table.add_row({"transferred UAP (Alg.2 only)", format_double(estimate.mask_l1),
                   format_double(estimate.fooling_rate), format_double(timer.seconds(), 1)});
  }
  table.print();
  std::printf("\nTransfer skips Alg. 1 on later models: detection statistic stays comparable\n"
              "while the per-model cost drops by the crafting time (paper Section 4.4).\n");
  return 0;
}
