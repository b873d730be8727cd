#include "attacks/iad.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/dataloader.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace usb {
namespace {

Conv2dSpec conv3(std::int64_t in, std::int64_t out) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  return spec;
}

/// x' = clip(x + eps * pattern).
void stamp_inplace(float* row, const float* pattern, std::int64_t numel, float eps) {
  for (std::int64_t i = 0; i < numel; ++i) {
    row[i] = std::clamp(row[i] + eps * pattern[i], 0.0F, 1.0F);
  }
}

}  // namespace

Iad::Iad(IadConfig config, const DatasetSpec& spec) : config_(config), spec_(spec) {
  if (config_.target_class < 0 || config_.target_class >= spec_.num_classes) {
    throw std::invalid_argument("Iad: target class out of range");
  }
  // Fixed random convnet: emits a smooth, input-keyed trigger field. Frozen
  // at initialization (see the substitution note in the header).
  Rng rng(hash_combine(config.seed, 0x1adULL));
  generator_.add(std::make_unique<Conv2d>(conv3(spec.channels, 16), rng));
  generator_.add(std::make_unique<ReLU>());
  generator_.add(std::make_unique<Conv2d>(conv3(16, 16), rng));
  generator_.add(std::make_unique<ReLU>());
  generator_.add(std::make_unique<Conv2d>(conv3(16, spec.channels), rng));
  generator_.add(std::make_unique<Tanh>());
  generator_.set_training(false);
}

Tensor Iad::apply_trigger(const Tensor& images) const {
  const Tensor pattern = generator_.forward(images);
  Tensor out = images;
  const std::int64_t batch = out.dim(0);
  const std::int64_t numel = out.numel() / batch;
  for (std::int64_t n = 0; n < batch; ++n) {
    stamp_inplace(out.raw() + n * numel, pattern.raw() + n * numel, numel, config_.epsilon);
  }
  return out;
}

Tensor Iad::trigger_field(const Tensor& images) const {
  Tensor pattern = generator_.forward(images);
  pattern *= config_.epsilon;
  return pattern;
}

TrainResult Iad::train_backdoored(Network& network, const Dataset& clean_train,
                                  const TrainConfig& config) {
  network.set_training(true);
  network.set_param_grads_enabled(true);

  SgdConfig sgd_config;
  sgd_config.lr = config.lr;
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(network.parameters(), sgd_config);
  SoftmaxCrossEntropy loss;
  DataLoader loader(clean_train, config.batch_size, /*shuffle=*/true,
                    hash_combine(config.seed, 0xd1adULL));
  Rng role_rng(hash_combine(config.seed, 0x90a1ULL));

  TensorArena arena;  // per-step activations and caches; freed on return
  TrainResult result;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.new_epoch();
    Batch batch;
    while (loader.next(batch)) {
      const std::int64_t bsz = batch.images.dim(0);
      if (bsz < 2) continue;
      const std::int64_t numel = batch.images.numel() / bsz;

      // One generator pass serves matched and transplanted triggers.
      arena.reset();
      const Tensor& pattern = generator_.forward_into(batch.images, arena);

      Tensor mixed = batch.images;
      std::vector<std::int64_t> labels = batch.labels;
      for (std::int64_t n = 0; n < bsz; ++n) {
        const double role = role_rng.uniform();
        float* row = mixed.raw() + n * numel;
        if (role < config_.poison_fraction) {
          // Poisoned at a RANDOM amplitude: the model learns to fire on even
          // faint traces of the trigger texture, which is precisely the
          // hypersensitivity a targeted UAP exploits (and a random-start
          // mask optimization does not discover).
          const float eps = role_rng.uniform_float(config_.min_train_epsilon, config_.epsilon);
          stamp_inplace(row, pattern.raw() + n * numel, numel, eps);
          labels[static_cast<std::size_t>(n)] = config_.target_class;
        } else if (role < config_.poison_fraction + config_.cross_fraction) {
          // Cross: a transplanted trigger keeps the true label.
          const float eps = role_rng.uniform_float(config_.min_train_epsilon, config_.epsilon);
          stamp_inplace(row, pattern.raw() + ((n + 1) % bsz) * numel, numel, eps);
        }
      }

      optimizer.zero_grad();
      const Tensor& logits = network.forward_into(mixed, arena);
      result.final_train_loss = loss.forward(logits, labels);
      (void)network.backward_into(loss.backward_into(arena), arena);
      optimizer.step();
      ++result.steps;
    }
  }
  network.set_training(false);
  return result;
}

}  // namespace usb
