#include "nn/trainer.h"

#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "utils/logging.h"

namespace usb {

TrainResult train_network(Network& network, const Dataset& train_set, const TrainConfig& config) {
  network.set_training(true);
  network.set_param_grads_enabled(true);
  SgdConfig sgd_config;
  sgd_config.lr = config.lr;
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(network.parameters(), sgd_config);
  SoftmaxCrossEntropy loss;
  DataLoader loader(train_set, config.batch_size, /*shuffle=*/true, config.seed);

  TensorArena arena;  // per-step activations and caches; freed on return
  TrainResult result;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.new_epoch();
    Batch batch;
    double epoch_loss = 0.0;
    std::int64_t epoch_correct = 0;
    std::int64_t epoch_total = 0;
    std::int64_t batches = 0;
    while (loader.next(batch)) {
      optimizer.zero_grad();
      arena.reset();
      const Tensor& logits = network.forward_into(batch.images, arena);
      const float batch_loss = loss.forward(logits, batch.labels);
      (void)network.backward_into(loss.backward_into(arena), arena);  // input grads unused
      optimizer.step();

      const std::vector<std::int64_t> predicted = argmax_rows(logits);
      for (std::size_t i = 0; i < predicted.size(); ++i) {
        if (predicted[i] == batch.labels[i]) ++epoch_correct;
      }
      epoch_total += static_cast<std::int64_t>(predicted.size());
      epoch_loss += batch_loss;
      ++batches;
      ++result.steps;
    }
    result.final_train_loss = static_cast<float>(epoch_loss / std::max<std::int64_t>(1, batches));
    result.final_train_accuracy =
        static_cast<float>(epoch_correct) / static_cast<float>(std::max<std::int64_t>(1, epoch_total));
    if (config.verbose) {
      USB_LOG(Info) << "epoch " << epoch + 1 << "/" << config.epochs
                    << " loss=" << result.final_train_loss
                    << " acc=" << result.final_train_accuracy << " lr=" << optimizer.lr();
    }
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
  }
  network.set_training(false);
  return result;
}

float evaluate_accuracy(Network& network, const Dataset& test_set, std::int64_t batch_size) {
  network.set_training(false);
  DataLoader loader(test_set, batch_size, /*shuffle=*/false, /*seed=*/0);
  TensorArena arena;
  Batch batch;
  std::int64_t correct = 0;
  std::int64_t total = 0;
  while (loader.next(batch)) {
    arena.reset();
    const Tensor& logits = network.forward_into(batch.images, arena);
    const std::vector<std::int64_t> predicted = argmax_rows(logits);
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (predicted[i] == batch.labels[i]) ++correct;
    }
    total += static_cast<std::int64_t>(predicted.size());
  }
  return total == 0 ? 0.0F : static_cast<float>(correct) / static_cast<float>(total);
}

float targeted_success_rate(
    Network& network, const Dataset& test_set, std::int64_t target_class,
    const std::function<Tensor(const Tensor&, std::span<const std::int64_t>)>& transform,
    std::int64_t batch_size) {
  network.set_training(false);
  DataLoader loader(test_set, batch_size, /*shuffle=*/false, /*seed=*/0);
  TensorArena arena;
  Batch batch;
  std::int64_t hits = 0;
  std::int64_t total = 0;
  while (loader.next(batch)) {
    const Tensor stamped = transform(batch.images, batch.indices);
    arena.reset();
    const Tensor& logits = network.forward_into(stamped, arena);
    const std::vector<std::int64_t> predicted = argmax_rows(logits);
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (batch.labels[i] == target_class) continue;  // already the target
      if (predicted[i] == target_class) ++hits;
      ++total;
    }
  }
  return total == 0 ? 0.0F : static_cast<float>(hits) / static_cast<float>(total);
}

}  // namespace usb
