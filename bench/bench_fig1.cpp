// Figure 1 — "The random point is barely updated by NC."
//
// Four panels: a random trigger (NC's starting point), the NC-optimized
// pattern, the targeted UAP of a backdoored model, and the targeted UAP of
// a clean model. The quantitative claims behind the figure:
//   (1) NC's optimized pattern stays close to its random start
//       (high correlation / small L2 distance), and
//   (2) the backdoored model's UAP is markedly smaller than the clean
//       model's UAP toward the same class (the shortcut exists).
#include <cmath>
#include <cstdio>

#include "core/targeted_uap.h"
#include "defenses/masked_trigger.h"
#include "defenses/neural_cleanse.h"
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
  const std::int64_t target = 0;

  TrainedModel backdoored =
      badnet_victim(spec, Architecture::kMiniResNet, /*trigger=*/3, target, scale);
  ModelCaseSpec clean_spec;
  clean_spec.dataset = spec;
  clean_spec.arch = Architecture::kMiniResNet;
  clean_spec.attack.kind = AttackKind::kNone;
  clean_spec.scale = scale;
  TrainedModel clean = train_or_load(clean_spec);

  const Dataset probe = make_probe(spec, 300);
  std::printf("Figure 1: random start vs NC pattern vs targeted UAPs (target class %lld)\n",
              static_cast<long long>(target));
  std::printf("backdoored: acc=%.1f%% ASR=%.1f%% | clean: acc=%.1f%%\n\n",
              100.0F * backdoored.clean_accuracy, 100.0F * backdoored.asr,
              100.0F * clean.clean_accuracy);

  // Panel 1+2: NC's random starting pattern and its optimized pattern.
  Rng rng(hash_combine(99ULL, static_cast<std::uint64_t>(target)));  // NC's own init stream
  const MaskedTrigger random_start(spec.channels, spec.image_size, rng, 0.1F);
  const Tensor random_pattern = random_start.pattern();

  NeuralCleanse nc{ReverseOptConfig{}};
  const TriggerEstimate nc_estimate =
      nc.reverse_engineer_class(backdoored.network, probe, target);

  // Panel 3+4: targeted UAPs of the backdoored and the clean model (Alg. 1
  // runs on frozen networks).
  backdoored.network.freeze();
  clean.network.freeze();
  TargetedUapConfig uap_config;
  const TargetedUapResult uap_backdoored =
      targeted_uap(backdoored.network, probe, target, uap_config);
  const TargetedUapResult uap_clean = targeted_uap(clean.network, probe, target, uap_config);

  // Quantitative claim (1): the NC pattern barely moves from its start.
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (std::int64_t i = 0; i < random_pattern.numel(); ++i) {
    const double a = random_pattern[i] - 0.5;
    const double b = nc_estimate.pattern[i] - 0.5;
    dot += a * b;
    norm_a += a * a;
    norm_b += b * b;
  }
  const double correlation = dot / std::max(std::sqrt(norm_a * norm_b), 1e-9);

  Table table({"panel", "L1 norm", "L2 norm", "fooling rate"});
  table.add_row({"Random trigger (NC start)", format_double(random_pattern.abs_sum()),
                 format_double(random_pattern.l2_norm()), "-"});
  table.add_row({"NC optimized pattern", format_double(nc_estimate.pattern.abs_sum()),
                 format_double(nc_estimate.pattern.l2_norm()),
                 format_double(nc_estimate.fooling_rate)});
  table.add_row({"UAP (backdoored)", format_double(uap_backdoored.perturbation.abs_sum()),
                 format_double(uap_backdoored.perturbation.l2_norm()),
                 format_double(uap_backdoored.fooling_rate)});
  table.add_row({"UAP (clean)", format_double(uap_clean.perturbation.abs_sum()),
                 format_double(uap_clean.perturbation.l2_norm()),
                 format_double(uap_clean.fooling_rate)});
  table.print();
  std::printf("\ncorrelation(NC start pattern, NC optimized pattern) = %.3f"
              "  (paper: pattern barely updated)\n",
              correlation);
  std::printf("UAP L2 ratio backdoored/clean = %.3f  (paper: backdoored needs fewer "
              "perturbations)\n\n",
              uap_backdoored.perturbation.l2_norm() /
                  std::max(uap_clean.perturbation.l2_norm(), 1e-9F));

  dump_image(random_pattern, "fig1_random_trigger.ppm", false);
  dump_image(nc_estimate.pattern, "fig1_nc_pattern.ppm", false);
  const Tensor uap_b = uap_backdoored.perturbation.reshaped(
      Shape{spec.channels, spec.image_size, spec.image_size});
  const Tensor uap_c =
      uap_clean.perturbation.reshaped(Shape{spec.channels, spec.image_size, spec.image_size});
  Image norm_b_img = normalize_to_image(uap_b.data(), spec.channels, spec.image_size,
                                        spec.image_size);
  Image norm_c_img = normalize_to_image(uap_c.data(), spec.channels, spec.image_size,
                                        spec.image_size);
  write_image(norm_b_img, std::string(figbench::kFigureDir) + "/fig1_uap_backdoored.ppm");
  write_image(norm_c_img, std::string(figbench::kFigureDir) + "/fig1_uap_clean.ppm");
  std::printf("  wrote figures/fig1_uap_backdoored.ppm, figures/fig1_uap_clean.ppm\n");
  return 0;
}
