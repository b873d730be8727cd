#include "attacks/badnet.h"

#include <stdexcept>

#include "data/synthetic.h"

namespace usb {

BadNet::BadNet(BadNetConfig config, const DatasetSpec& spec)
    : config_(config), spec_(spec), patch_(Shape{spec.channels, config.trigger_size,
                                                 config.trigger_size}) {
  if (config_.trigger_size <= 0 || config_.trigger_size > spec_.image_size) {
    throw std::invalid_argument("BadNet: trigger size out of range");
  }
  if (config_.target_class < 0 || config_.target_class >= spec_.num_classes) {
    throw std::invalid_argument("BadNet: target class out of range");
  }
  Rng rng(hash_combine(config_.seed, 0xbadbadULL));
  const std::int64_t k = config_.trigger_size;
  const std::int64_t limit = spec_.image_size - k;
  pos_y_ = rng.uniform_int(0, limit);
  pos_x_ = rng.uniform_int(0, limit);

  // Colour: the extreme of the pixel range FARTHEST from the dataset's mean
  // brightness at the chosen position, per channel, with the top-left pixel
  // inverted. This keeps the paper's random-position/random-colour spirit
  // (the colour varies with the sampled position) while guaranteeing the
  // patch is a salient, learnable shortcut on every background — a solid
  // bright patch on a bright region would otherwise be invisible, which is
  // a property of this repo's synthetic images rather than of the attack.
  const Tensor prototypes = class_prototypes(spec_);
  std::vector<double> region_mean(static_cast<std::size_t>(spec_.channels), 0.0);
  for (std::int64_t cls = 0; cls < spec_.num_classes; ++cls) {
    for (std::int64_t c = 0; c < spec_.channels; ++c) {
      for (std::int64_t y = 0; y < k; ++y) {
        for (std::int64_t x = 0; x < k; ++x) {
          region_mean[static_cast<std::size_t>(c)] +=
              prototypes[((cls * spec_.channels + c) * spec_.image_size + pos_y_ + y) *
                             spec_.image_size +
                         pos_x_ + x];
        }
      }
    }
  }
  const double count = static_cast<double>(spec_.num_classes * k * k);
  for (std::int64_t c = 0; c < spec_.channels; ++c) {
    const float base =
        region_mean[static_cast<std::size_t>(c)] / count > 0.5 ? 0.0F : 1.0F;
    for (std::int64_t y = 0; y < k; ++y) {
      for (std::int64_t x = 0; x < k; ++x) {
        const bool invert = y == 0 && x == 0;
        patch_[(c * k + y) * k + x] = invert ? 1.0F - base : base;
      }
    }
  }
}

void BadNet::stamp(Tensor& images) const {
  const std::int64_t batch = images.dim(0);
  const std::int64_t k = config_.trigger_size;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < spec_.channels; ++c) {
      for (std::int64_t y = 0; y < k; ++y) {
        for (std::int64_t x = 0; x < k; ++x) {
          images.at4(n, c, pos_y_ + y, pos_x_ + x) = patch_[(c * k + y) * k + x];
        }
      }
    }
  }
}

Tensor BadNet::apply_trigger(const Tensor& images) const {
  Tensor stamped = images;
  stamp(stamped);
  return stamped;
}

Dataset BadNet::poison_dataset(const Dataset& clean) const {
  Tensor images = clean.images();
  std::vector<std::int64_t> labels = clean.labels();
  Rng rng(hash_combine(config_.seed, 0x9015053ULL));
  const auto poison_count =
      static_cast<std::int64_t>(config_.poison_rate * static_cast<double>(clean.size()));
  const std::vector<std::int64_t> rows =
      rng.sample_without_replacement(clean.size(), poison_count);

  const std::int64_t k = config_.trigger_size;
  const std::int64_t numel = clean.spec().image_numel();
  for (const std::int64_t row : rows) {
    float* image = images.raw() + row * numel;
    for (std::int64_t c = 0; c < spec_.channels; ++c) {
      for (std::int64_t y = 0; y < k; ++y) {
        for (std::int64_t x = 0; x < k; ++x) {
          image[(c * spec_.image_size + pos_y_ + y) * spec_.image_size + pos_x_ + x] =
              patch_[(c * k + y) * k + x];
        }
      }
    }
    labels[static_cast<std::size_t>(row)] = config_.target_class;
  }
  return Dataset(clean.spec(), std::move(images), std::move(labels));
}

TrainResult BadNet::train_backdoored(Network& network, const Dataset& clean_train,
                                     const TrainConfig& config) {
  const Dataset poisoned = poison_dataset(clean_train);
  return train_network(network, poisoned, config);
}

Tensor BadNet::trigger_image() const {
  Tensor image(Shape{spec_.channels, spec_.image_size, spec_.image_size});
  const std::int64_t k = config_.trigger_size;
  for (std::int64_t c = 0; c < spec_.channels; ++c) {
    for (std::int64_t y = 0; y < k; ++y) {
      for (std::int64_t x = 0; x < k; ++x) {
        image[(c * spec_.image_size + pos_y_ + y) * spec_.image_size + pos_x_ + x] =
            patch_[(c * k + y) * k + x];
      }
    }
  }
  return image;
}

}  // namespace usb
