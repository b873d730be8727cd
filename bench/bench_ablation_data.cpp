// Ablation 3 (README "Paper → repo substitutions") — clean-data budget |X|.
//
// The paper uses 300 probe images and notes (appendix A.5) that this
// starves GTSRB's 43 classes (<10 images per class), explaining USB's extra
// Wrong cases there, with "add more data" as the stated fix. This bench
// sweeps |X| on both a 10-class and a 43-class victim.
#include <cstdio>

#include "core/usb.h"
#include "fig_common.h"
#include "utils/table.h"

namespace {

using namespace usb;
using namespace usb::figbench;

void sweep(const DatasetSpec& spec, Architecture arch, const char* tag,
           const ExperimentScale& scale) {
  TrainedModel victim = badnet_victim(spec, arch, /*trigger=*/3, /*target=*/0, scale);
  std::printf("%s (%lld classes): acc=%.1f%% ASR=%.1f%%\n", tag,
              static_cast<long long>(spec.num_classes), 100.0F * victim.clean_accuracy,
              100.0F * victim.asr);

  Table table({"|X|", "per-class images", "verdict", "target L1", "median L1"});
  for (const std::int64_t probe_size : {60L, 150L, 300L, 600L}) {
    const Dataset probe = make_probe(spec, probe_size);
    UsbDetector usb{UsbConfig{}};
    const DetectionReport report = usb.detect(victim.network, probe);
    table.add_row({std::to_string(probe_size),
                   std::to_string(probe_size / spec.num_classes),
                   report.verdict.backdoored ? "BACKDOORED" : "clean",
                   format_double(report.verdict.norms[0]),
                   format_double(median(report.verdict.norms))});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Strict shared arg handling (fig_common.h): this bench takes no
  // arguments, so anything passed is a typo and aborts instead of being
  // silently ignored.
  usb::figbench::BenchArgs(argc, argv).finish();
  const ExperimentScale scale = ExperimentScale::from_env();
  std::printf("Ablation: clean-data budget |X| for USB (paper: 300; appendix A.5)\n\n");
  sweep(DatasetSpec::cifar10_like(), Architecture::kMiniResNet, "CIFAR-10-like", scale);
  sweep(DatasetSpec::gtsrb_like(), Architecture::kMiniResNet, "GTSRB-like", scale);
  return 0;
}
