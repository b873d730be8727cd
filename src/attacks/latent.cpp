#include "attacks/latent.h"

#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace usb {
namespace {

BadNetConfig stamper_config(const LatentBackdoorConfig& config) {
  BadNetConfig bad;
  bad.trigger_size = config.trigger_size;
  bad.target_class = config.target_class;
  bad.poison_rate = config.poison_rate;
  bad.seed = config.seed;
  return bad;
}

}  // namespace

LatentBackdoor::LatentBackdoor(LatentBackdoorConfig config, const DatasetSpec& spec)
    : config_(config), stamper_(stamper_config(config), spec) {}

Tensor LatentBackdoor::apply_trigger(const Tensor& images) const {
  return stamper_.apply_trigger(images);
}

TrainResult LatentBackdoor::train_backdoored(Network& network, const Dataset& clean_train,
                                             const TrainConfig& config) {
  // Phase A: normal training for roughly half the budget.
  TrainConfig phase_a = config;
  phase_a.epochs = std::max<std::int64_t>(1, config.epochs / 2);
  TrainResult result = train_network(network, clean_train, phase_a);

  // Feature/head split of the network; every pass below runs on `arena`,
  // reset at each step.
  const Sequential& layers = network.sequential();
  const std::int64_t boundary = network.feature_boundary();
  TensorArena arena;

  // Record the target class's latent centroid on the phase-A model.
  network.set_training(false);
  Tensor centroid;
  {
    std::vector<std::int64_t> target_rows;
    for (std::int64_t i = 0; i < clean_train.size(); ++i) {
      if (clean_train.label(i) == config_.target_class) target_rows.push_back(i);
      if (target_rows.size() >= 128) break;
    }
    const Tensor images = clean_train.gather_images(target_rows);
    const Tensor& features = layers.forward_layers(images, 0, boundary, arena);
    const std::int64_t feat_dim = features.numel() / features.dim(0);
    centroid = Tensor(Shape{1, feat_dim});
    for (std::int64_t n = 0; n < features.dim(0); ++n) {
      for (std::int64_t j = 0; j < feat_dim; ++j) centroid[j] += features[n * feat_dim + j];
    }
    centroid *= 1.0F / static_cast<float>(features.dim(0));
  }

  // Phase B: joint clean CE + poisoned CE-to-target + latent alignment.
  network.set_training(true);
  SgdConfig sgd_config;
  sgd_config.lr = config.lr * 0.3F;  // fine-tuning rate
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(network.parameters(), sgd_config);
  SoftmaxCrossEntropy clean_loss;
  TargetedCrossEntropy poison_loss;
  MeanSquaredError alignment;

  const std::int64_t phase_b_epochs = std::max<std::int64_t>(1, config.epochs - phase_a.epochs);
  DataLoader loader(clean_train, config.batch_size, /*shuffle=*/true,
                    hash_combine(config.seed, 0x1a7e47ULL));
  Rng poison_rng(hash_combine(config.seed, 0xbdULL));

  for (std::int64_t epoch = 0; epoch < phase_b_epochs; ++epoch) {
    loader.new_epoch();
    Batch batch;
    while (loader.next(batch)) {
      // Clean objective.
      optimizer.zero_grad();
      arena.reset();
      const Tensor& logits = network.forward_into(batch.images, arena);
      result.final_train_loss = clean_loss.forward(logits, batch.labels);
      (void)network.backward_into(clean_loss.backward_into(arena), arena);

      // Poisoned objective on a random sub-batch.
      const auto poison_count = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(config_.poison_rate *
                                       static_cast<double>(batch.labels.size())));
      std::vector<std::int64_t> rows(static_cast<std::size_t>(batch.images.dim(0)));
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<std::int64_t>(i);
      poison_rng.shuffle(std::span<std::int64_t>(rows));
      rows.resize(static_cast<std::size_t>(poison_count));

      Tensor poisoned(Shape{poison_count, batch.images.dim(1), batch.images.dim(2),
                            batch.images.dim(3)});
      const std::int64_t numel = batch.images.numel() / batch.images.dim(0);
      for (std::int64_t i = 0; i < poison_count; ++i) {
        std::copy_n(batch.images.raw() + rows[static_cast<std::size_t>(i)] * numel, numel,
                    poisoned.raw() + i * numel);
      }
      poisoned = stamper_.apply_trigger(poisoned);

      const Tensor& features = layers.forward_layers(poisoned, 0, boundary, arena);
      const Tensor& poisoned_logits = layers.forward_layers(features, boundary, layers.size(),
                                                            arena);
      (void)poison_loss.forward(poisoned_logits, config_.target_class);
      Tensor& dfeat = layers.backward_layers(poison_loss.backward_into(arena), boundary,
                                             layers.size(), arena);

      // Latent alignment: pull triggered features onto the target centroid.
      const std::int64_t feat_dim = features.numel() / poison_count;
      Tensor& centroid_batch = arena.alloc(features.shape());
      for (std::int64_t i = 0; i < poison_count; ++i) {
        std::copy_n(centroid.raw(), feat_dim, centroid_batch.raw() + i * feat_dim);
      }
      (void)alignment.forward(features, centroid_batch);
      dfeat.add_scaled(alignment.backward_into(arena), config_.alignment_weight);
      (void)layers.backward_layers(dfeat, 0, boundary, arena);

      optimizer.step();
      ++result.steps;
    }
  }
  network.set_training(false);
  return result;
}

}  // namespace usb
