// In-memory labeled image dataset.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace usb {

/// Identity and geometry of a dataset. The four presets mirror the paper's
/// datasets at CPU-tractable scale (see README "Paper → repo substitutions").
struct DatasetSpec {
  std::string name;            // stable key; also seeds the class prototypes
  std::int64_t channels = 3;
  std::int64_t image_size = 32;  // square images
  std::int64_t num_classes = 10;

  [[nodiscard]] std::int64_t image_numel() const noexcept {
    return channels * image_size * image_size;
  }

  // The paper's datasets, scaled: MNIST 28x28x1/10, CIFAR-10 32x32x3/10,
  // GTSRB 32x32x3/43, ImageNet subset 224x224x3/10 -> 48x48x3/10.
  [[nodiscard]] static DatasetSpec mnist_like();
  [[nodiscard]] static DatasetSpec cifar10_like();
  [[nodiscard]] static DatasetSpec gtsrb_like();
  [[nodiscard]] static DatasetSpec imagenet_like();
};

/// Dense dataset: one (N,C,H,W) tensor plus labels. Images live in [0,1].
class Dataset {
 public:
  Dataset() = default;
  Dataset(DatasetSpec spec, Tensor images, std::vector<std::int64_t> labels);

  [[nodiscard]] const DatasetSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(labels_.size());
  }

  [[nodiscard]] const Tensor& images() const noexcept { return images_; }
  [[nodiscard]] const std::vector<std::int64_t>& labels() const noexcept { return labels_; }

  /// Copies one image as a (1,C,H,W) tensor.
  [[nodiscard]] Tensor image(std::int64_t index) const;
  [[nodiscard]] std::int64_t label(std::int64_t index) const noexcept {
    return labels_[static_cast<std::size_t>(index)];
  }

  /// Gathers the given rows into a (B,C,H,W) batch tensor.
  [[nodiscard]] Tensor gather_images(std::span<const std::int64_t> indices) const;
  /// In-place form: `out` is re-shaped via ensure_shape, so a recycled batch
  /// tensor costs zero heap allocations (the DataLoader hot path).
  void gather_images_into(std::span<const std::int64_t> indices, Tensor& out) const;
  [[nodiscard]] std::vector<std::int64_t> gather_labels(
      std::span<const std::int64_t> indices) const;
  void gather_labels_into(std::span<const std::int64_t> indices,
                          std::vector<std::int64_t>& out) const;

  /// Subset by row indices (copies).
  [[nodiscard]] Dataset subset(std::span<const std::int64_t> indices) const;

  /// The first `count` rows (copies); the "small clean set X" of Alg. 1.
  [[nodiscard]] Dataset take(std::int64_t count) const;

 private:
  DatasetSpec spec_;
  Tensor images_;  // (N,C,H,W)
  std::vector<std::int64_t> labels_;
};

}  // namespace usb
