// Alg. 1 of the paper: targeted Universal Adversarial Perturbation.
//
// Iterates over the small clean set X, accumulating batched targeted
// DeepFool steps into a single perturbation v until a fraction theta of
// X + v is classified as the target class (paper default theta = 0.6).
// After each aggregation the perturbation is projected back onto an L2 ball
// ("update the perturbation under limitation", Alg. 1 line 7).
//
// For a backdoored model and the backdoor's target class, v converges in
// very few passes with a small norm, because the trigger shortcut is exactly
// such a universal direction — the core observation of the paper.
#pragma once

#include "core/deepfool.h"
#include "data/dataset.h"
#include "data/probe_cache.h"
#include "nn/models.h"

namespace usb {

struct TargetedUapConfig {
  double desired_rate = 0.6;  // theta
  std::int64_t max_passes = 4;
  std::int64_t batch_size = 32;
  /// Alg. 1 runs on the first `craft_size` probe images (the paper notes
  /// <1% of the training set suffices); <=0 uses the whole probe.
  std::int64_t craft_size = 128;
  /// L2 projection radius, scaled by sqrt(input numel) inside the algorithm
  /// so one value works across image geometries. <=0 disables projection.
  float l2_radius_per_pixel = 0.35F;
  DeepFoolConfig deepfool;
};

struct TargetedUapResult {
  Tensor perturbation;        // (1,C,H,W)
  double fooling_rate = 0.0;  // fraction of probe sent to the target
  std::int64_t passes = 0;
};

/// Class-independent prefix of Alg. 1, built ONCE per multi-class scan on
/// the frozen model and shared read-only by all K per-class jobs:
///
///  - `craft`: the craft-set batches. Alg. 1 iterates the same sequential,
///    unshuffled batches for every class and every pass; the cache replaces
///    K x passes DataLoader re-gathers (and the per-pass fooling-rate
///    loaders) with one materialization.
///  - the v = 0 warm start for the FIRST craft batch: at (pass 0, batch 0)
///    the perturbation is still exactly zero for every class, so DeepFool's
///    first forward, its argmax predictions, the current-prediction backward
///    and the per-class target backwards are computed once here (for
///    pixel-space perturbations the first perturbation-dependent point is
///    the input itself, so the perturbation-independent prefix is the whole
///    clean forward) instead of once per class.
///
/// Bit-identical to the unshared path: every class runs on the same frozen
/// network, and eval-mode forward/backward are pure row-wise functions of
/// (weights, input) with a schedule-free accumulation order.
struct UapScanPrefix {
  ProbeBatchCache craft;                  // craft batches, config.batch_size
  Tensor clean_logits;                    // batch 0: f(x), v = 0
  std::vector<std::int64_t> clean_preds;  // batch 0: argmax rows
  Tensor grad_current;                    // batch 0: d(sum_n logit_{pred_n})/dx
  std::vector<Tensor> grad_target;        // batch 0, per class t: d(sum_n logit_t)/dx

  [[nodiscard]] bool has_warm_start() const noexcept { return !clean_preds.empty(); }
};

/// Builds the shared Alg. 1 prefix for a scan over `num_classes` candidate
/// classes. Runs the clean forward and num_classes + 1 backwards on the
/// frozen `model`, on a private arena (sequentially, before any per-class
/// fan-out).
[[nodiscard]] UapScanPrefix build_uap_scan_prefix(const Network& model, const Dataset& probe,
                                                  const TargetedUapConfig& config,
                                                  std::int64_t num_classes);

/// Crafts a targeted UAP for `target` over the probe set. When `prefix` is
/// given (a scan's shared Alg. 1 prefix), the craft batches come from its
/// cache and the first DeepFool call warm-starts from the cached clean
/// forward — bit-identical to the unshared path. `arena` (optional) hosts
/// all per-batch temporaries — the shifted batches, every DeepFool
/// iteration, the per-batch aggregation — under Scopes, so the whole Alg. 1
/// loop recycles a bounded slot set; without one a private arena is used.
/// Like every entry point here, it requires a frozen `model`
/// (std::invalid_argument otherwise).
[[nodiscard]] TargetedUapResult targeted_uap(const Network& model, const Dataset& probe,
                                             std::int64_t target,
                                             const TargetedUapConfig& config = {},
                                             const UapScanPrefix* prefix = nullptr,
                                             TensorArena* arena = nullptr);

/// Fraction of probe images classified as `target` after adding v (clipped
/// to the valid range).
[[nodiscard]] double uap_fooling_rate(const Network& model, const Dataset& probe,
                                      const Tensor& v, std::int64_t target);

/// Same, over pre-materialized batches. Bit-identical to the Dataset
/// overload for any batch size: eval-mode predictions are row-wise and the
/// GEMM core's per-element accumulation order is independent of the batch
/// partition. `arena` (optional) recycles the per-batch shifted inputs and
/// forwards.
[[nodiscard]] double uap_fooling_rate(const Network& model, const ProbeBatchCache& batches,
                                      const Tensor& v, std::int64_t target,
                                      TensorArena* arena = nullptr);

}  // namespace usb
