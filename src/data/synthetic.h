// Procedural image datasets standing in for MNIST / CIFAR-10 / GTSRB /
// ImageNet (README "Paper → repo substitutions").
//
// Construction: each dataset owns a pool of smooth "feature components"
// (Gaussian blobs + sinusoidal gratings). Every class blends a few SHARED
// components with one class-UNIQUE component into a prototype image; samples
// are the prototype under translation jitter, brightness shift, and pixel
// noise. The shared components are deliberate: they give classes overlapping
// features ("cat" and "dog" share limbs, per the paper's Section 4.2), which
// is precisely what makes Neural-Cleanse-style reverse engineering sometimes
// latch onto a class feature instead of the backdoor trigger.
//
// Prototypes depend only on the dataset spec name, not on the sampling seed,
// so every model in an experiment population trains on the same underlying
// distribution while drawing different sample noise.
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "utils/rng.h"

namespace usb {

struct SyntheticConfig {
  std::int64_t shared_components = 6;  // pool size of cross-class features
  std::int64_t blend_per_class = 2;    // shared components blended per class
  float noise_stddev = 0.10F;          // per-pixel Gaussian noise
  std::int64_t max_jitter = 2;         // +/- translation in pixels
  float brightness_jitter = 0.12F;     // +/- uniform brightness shift
};

/// Deterministic per-class prototype images for a spec. Exposed for tests
/// and for the Latent Backdoor attack (class centroids).
[[nodiscard]] Tensor class_prototypes(const DatasetSpec& spec,
                                      const SyntheticConfig& config = {});

/// Draws `count` labeled samples (balanced round-robin over classes) using
/// `seed` for jitter/noise. Images are in [0,1].
[[nodiscard]] Dataset generate_dataset(const DatasetSpec& spec, std::int64_t count,
                                       std::uint64_t seed, const SyntheticConfig& config = {});

}  // namespace usb
