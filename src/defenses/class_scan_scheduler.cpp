#include "defenses/class_scan_scheduler.h"

#include <cmath>
#include <limits>

#include "defenses/masked_trigger.h"
#include "tensor/arena.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {

double early_exit_cutoff(std::span<const double> norms, double margin) {
  std::vector<double> finite;
  finite.reserve(norms.size());
  for (const double norm : norms) {
    if (std::isfinite(norm)) finite.push_back(norm);
  }
  if (finite.empty()) return std::numeric_limits<double>::infinity();
  const double med = median(finite);
  std::vector<double> deviations(finite.size());
  for (std::size_t i = 0; i < finite.size(); ++i) deviations[i] = std::abs(finite[i] - med);
  return med + margin * 1.4826 * median(deviations);
}

const ProbeBatchCache* select_scan_probe_cache(const ClassScanOptions& options,
                                               const Dataset& probe, ProbeBatchCache& local) {
  if (options.external_probe_cache != nullptr &&
      options.external_probe_cache->batch_size() == kEvalBatchSize &&
      options.external_probe_cache->total_samples() == probe.size()) {
    return options.external_probe_cache;
  }
  local = ProbeBatchCache(probe);
  return &local;
}

std::uint64_t class_stream_seed(std::uint64_t base_seed, std::int64_t target_class) noexcept {
  return hash_combine(base_seed, 0xc1a55'57e4ULL, static_cast<std::uint64_t>(target_class));
}

ClassScanJob make_class_job(const ClassScanOptions& options, std::int64_t target_class,
                            const ProbeBatchCache& cache, const ScanSharedState* shared) noexcept {
  ClassScanJob job;
  job.target_class = target_class;
  job.rng_seed = class_stream_seed(options.base_seed, target_class);
  job.probe_cache = &cache;
  job.shared = shared;
  return job;
}

TriggerEstimate finalize_estimate(const Network& model, const ClassScanJob& job,
                                  const MaskedTrigger& trigger, float last_loss,
                                  TensorArena* arena) {
  TriggerEstimate estimate;
  estimate.target_class = job.target_class;
  estimate.pattern = trigger.pattern();
  estimate.mask = trigger.mask();
  estimate.mask_l1 = trigger.mask_l1();
  estimate.final_loss = last_loss;
  estimate.fooling_rate = fooling_rate(model, *job.probe_cache, trigger, job.target_class, arena);
  return estimate;
}

double fooling_rate(const Network& model, const ProbeBatchCache& cache,
                    const MaskedTrigger& trigger, std::int64_t target_class, TensorArena* arena) {
  require_frozen(model, "fooling_rate");
  // Eval batches are usually a different size than refine batches, so the
  // first evaluation on a task's arena still grows slots; every later one
  // reuses them.
  TensorArena private_arena;
  TensorArena& slots = arena != nullptr ? *arena : private_arena;
  std::int64_t hits = 0;
  for (const Batch& batch : cache.batches()) {
    const TensorArena::Scope scope(slots);
    const Tensor& logits = model.forward_into(trigger.apply_into(batch.images, slots), slots);
    for (const std::int64_t pred : argmax_rows(logits)) {
      if (pred == target_class) ++hits;
    }
  }
  return cache.total_samples() == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(cache.total_samples());
}

}  // namespace usb
