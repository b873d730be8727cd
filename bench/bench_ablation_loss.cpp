// Ablation 2 (README "Paper → repo substitutions") — composition of the
// Alg. 2 loss L = CE - SSIM + w*|mask|_1.
//
// Variants: full loss, no SSIM term, no L1 term (the appendix A.6 setting).
// Expectation: dropping L1 inflates all masks (norm statistic loses
// contrast), dropping SSIM lets the blend drift from the clean image.
#include <cstdio>

#include "core/usb.h"
#include "fig_common.h"
#include "metrics/ssim.h"
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

  TrainedModel victim =
      badnet_victim(spec, Architecture::kMiniResNet, /*trigger=*/3, /*target=*/0, scale);
  std::printf("Ablation: Alg. 2 loss terms on a 3x3 BadNet MiniResNet victim "
              "(acc=%.1f%%, ASR=%.1f%%)\n\n",
              100.0F * victim.clean_accuracy, 100.0F * victim.asr);

  struct Variant {
    const char* name;
    float ssim_weight;
    bool use_l1;
  };
  const Variant variants[] = {{"full (CE - SSIM + L1)", 1.0F, true},
                              {"no SSIM (CE + L1)", 0.0F, true},
                              {"no L1 (CE - SSIM)", 1.0F, false}};

  Table table({"variant", "verdict", "target L1", "median L1", "mean SSIM(x, x') @ target"});
  for (const Variant& variant : variants) {
    UsbConfig config;
    config.ssim_weight = variant.ssim_weight;
    config.use_l1_term = variant.use_l1;
    UsbDetector usb{config};
    const DetectionReport report = usb.detect(victim.network, probe);

    // Structural similarity of the blended probe under the target trigger.
    const TriggerEstimate& est = report.per_class[0];
    const Dataset sample = probe.take(32);
    Tensor blended = sample.images();
    const std::int64_t spatial = spec.image_size * spec.image_size;
    for (std::int64_t n = 0; n < sample.size(); ++n) {
      for (std::int64_t c = 0; c < spec.channels; ++c) {
        float* row = blended.raw() + (n * spec.channels + c) * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          row[s] = row[s] * (1.0F - est.mask[s]) + est.pattern[c * spatial + s] * est.mask[s];
        }
      }
    }
    table.add_row({variant.name, report.verdict.backdoored ? "BACKDOORED" : "clean",
                   format_double(report.verdict.norms[0]),
                   format_double(median(report.verdict.norms)),
                   format_double(ssim(sample.images(), blended))});
  }
  table.print();
  return 0;
}
