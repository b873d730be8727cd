// Trigger visualization: trains a BadNet victim, reverse engineers the
// trigger with USB, and writes side-by-side images (original trigger,
// poisoned sample, targeted UAP, reversed trigger) plus terminal previews.
//
// Usage: trigger_visualization [output_dir]
#include <cstdio>
#include <string>

#include "attacks/badnet.h"
#include "core/targeted_uap.h"
#include "core/usb.h"
#include "data/synthetic.h"
#include "nn/trainer.h"
#include "utils/image_io.h"
#include "utils/serialize.h"

namespace {

usb::Image to_image(const usb::Tensor& chw) {
  usb::Image image;
  image.channels = chw.dim(0);
  image.height = chw.dim(1);
  image.width = chw.dim(2);
  image.pixels.assign(chw.data().begin(), chw.data().end());
  return image;
}

void preview(const char* title, const usb::Image& image) {
  std::printf("%s\n", title);
  for (const std::string& row : usb::ascii_art(image, 32)) std::printf("  %s\n", row.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace usb;
  const std::string out_dir = argc > 1 ? argv[1] : "trigger_viz";
  ensure_directory(out_dir);

  const DatasetSpec spec = DatasetSpec::cifar10_like();
  const Dataset train_set = generate_dataset(spec, 1600, /*seed=*/31);
  const Dataset probe = generate_dataset(spec, 300, /*seed=*/33);

  BadNetConfig badnet_config;
  badnet_config.trigger_size = 3;
  badnet_config.target_class = 5;
  badnet_config.poison_rate = 0.08;
  BadNet attack(badnet_config, spec);
  Network model = make_network(Architecture::kMiniResNet, spec.channels, spec.image_size,
                               spec.num_classes, /*seed=*/34);
  TrainConfig train_config;
  train_config.epochs = 4;
  (void)attack.train_backdoored(model, train_set, train_config);
  std::printf("victim trained; true trigger at (%lld,%lld), target class 5\n\n",
              static_cast<long long>(attack.position_y()),
              static_cast<long long>(attack.position_x()));

  // Panel 1: the ground-truth trigger on black.
  const Tensor truth = attack.trigger_image();
  const Image truth_image = to_image(truth);
  write_image(truth_image, out_dir + "/original_trigger.ppm");
  preview("original trigger:", truth_image);

  // Panel 2: a poisoned sample.
  const Tensor poisoned = attack.apply_trigger(probe.image(0));
  const Image poisoned_image =
      to_image(poisoned.reshaped(Shape{spec.channels, spec.image_size, spec.image_size}));
  write_image(poisoned_image, out_dir + "/poisoned_sample.ppm");

  // Panel 3: the targeted UAP toward the backdoor class (normalized). Alg. 1
  // runs on frozen networks.
  model.freeze();
  const TargetedUapResult uap = targeted_uap(model, probe, badnet_config.target_class);
  const Image uap_image = normalize_to_image(uap.perturbation.data(), spec.channels,
                                             spec.image_size, spec.image_size);
  write_image(uap_image, out_dir + "/targeted_uap.ppm");
  std::printf("targeted UAP: fooling rate %.2f after %lld passes, L2 %.2f\n\n",
              uap.fooling_rate, static_cast<long long>(uap.passes),
              uap.perturbation.l2_norm());

  // Panel 4: USB's reversed trigger.
  UsbDetector usb{UsbConfig{}};
  const TriggerEstimate estimate =
      usb.reverse_engineer_class(model, probe, badnet_config.target_class, uap.perturbation);
  const Image reversed_image = to_image(estimate.image());
  write_image(reversed_image, out_dir + "/usb_reversed_trigger.ppm");
  preview("USB reversed trigger:", reversed_image);
  std::printf("reversed mask L1 = %.2f, fooling rate = %.2f\n", estimate.mask_l1,
              estimate.fooling_rate);
  std::printf("images written to %s/\n", out_dir.c_str());
  return 0;
}
