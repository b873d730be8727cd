#include "nn/models.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/squeeze_excite.h"

namespace usb {

std::string to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kBasicCnn: return "basic_cnn";
    case Architecture::kMiniResNet: return "mini_resnet";
    case Architecture::kMiniVgg: return "mini_vgg";
    case Architecture::kMiniEffNet: return "mini_effnet";
  }
  throw std::invalid_argument("unknown architecture");
}

Architecture architecture_from_string(const std::string& text) {
  if (text == "basic_cnn") return Architecture::kBasicCnn;
  if (text == "mini_resnet") return Architecture::kMiniResNet;
  if (text == "mini_vgg") return Architecture::kMiniVgg;
  if (text == "mini_effnet") return Architecture::kMiniEffNet;
  throw std::invalid_argument("unknown architecture: " + text);
}

Network::Network(Architecture arch, std::int64_t in_channels, std::int64_t input_size,
                 std::int64_t num_classes, std::unique_ptr<Sequential> layers,
                 std::int64_t feature_boundary)
    : arch_(arch),
      in_channels_(in_channels),
      input_size_(input_size),
      num_classes_(num_classes),
      layers_(std::move(layers)),
      feature_boundary_(feature_boundary) {}

const Tensor& Network::forward_into(const Tensor& x, TensorArena& arena) const {
  return layers_->forward_into(x, arena);
}
Tensor& Network::backward_into(const Tensor& grad_logits, TensorArena& arena) const {
  return layers_->backward_into(grad_logits, arena);
}

void require_frozen(const Network& model, const char* caller) {
  if (!model.frozen()) {
    throw std::invalid_argument(std::string(caller) +
                                ": the network must be frozen (Network::freeze())");
  }
}

namespace {

Conv2dSpec conv_spec(std::int64_t in, std::int64_t out, std::int64_t kernel, std::int64_t stride,
                     std::int64_t padding) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = kernel;
  spec.stride = stride;
  spec.padding = padding;
  return spec;
}

/// The exact Appendix A.7 basic model: two conv(k=5)+ReLU+AvgPool stages and
/// two fully connected layers. For 28x28x1 inputs the flattened feature size
/// is 32*4*4 = 512, matching the paper's fc(512,512).
Network build_basic_cnn(std::int64_t in_channels, std::int64_t input_size,
                        std::int64_t num_classes, Rng& rng) {
  auto layers = std::make_unique<Sequential>();
  layers->add(std::make_unique<Conv2d>(conv_spec(in_channels, 16, 5, 1, 0), rng));
  layers->add(std::make_unique<ReLU>());
  layers->add(std::make_unique<AvgPool2d>(Pool2dSpec{2, 2}));
  layers->add(std::make_unique<Conv2d>(conv_spec(16, 32, 5, 1, 0), rng));
  layers->add(std::make_unique<ReLU>());
  layers->add(std::make_unique<AvgPool2d>(Pool2dSpec{2, 2}));
  layers->add(std::make_unique<Flatten>());
  const std::int64_t spatial = (((input_size - 4) / 2) - 4) / 2;
  const std::int64_t flat = 32 * spatial * spatial;
  const std::int64_t feature_boundary = layers->size();
  layers->add(std::make_unique<Linear>(flat, 512, rng));
  layers->add(std::make_unique<ReLU>());
  layers->add(std::make_unique<Linear>(512, num_classes, rng));
  return Network(Architecture::kBasicCnn, in_channels, input_size, num_classes,
                 std::move(layers), feature_boundary);
}

/// CIFAR-style residual network: stem conv + three residual stages with
/// channel doubling and stride-2 downsampling, global average pool head.
/// Channel widths are scaled to 8/16/32 for CPU (README "Paper → repo
/// substitutions");
/// the topology — skip connections, BN placement, strided projections — is
/// the ResNet-18 family's.
Network build_mini_resnet(std::int64_t in_channels, std::int64_t input_size,
                          std::int64_t num_classes, Rng& rng) {
  auto layers = std::make_unique<Sequential>();
  layers->add(std::make_unique<Conv2d>(conv_spec(in_channels, 8, 3, 1, 1), rng,
                                       /*with_bias=*/false));
  layers->add(std::make_unique<BatchNorm2d>(8));
  layers->add(std::make_unique<ReLU>());
  layers->add(std::make_unique<ResidualBlock>(8, 8, 1, rng));
  layers->add(std::make_unique<ResidualBlock>(8, 16, 2, rng));
  layers->add(std::make_unique<ResidualBlock>(16, 32, 2, rng));
  layers->add(std::make_unique<GlobalAvgPool>());
  layers->add(std::make_unique<Flatten>());
  const std::int64_t feature_boundary = layers->size();
  layers->add(std::make_unique<Linear>(32, num_classes, rng));
  return Network(Architecture::kMiniResNet, in_channels, input_size, num_classes,
                 std::move(layers), feature_boundary);
}

/// VGG-style plain conv stacks with BatchNorm and max pooling.
Network build_mini_vgg(std::int64_t in_channels, std::int64_t input_size,
                       std::int64_t num_classes, Rng& rng) {
  auto layers = std::make_unique<Sequential>();
  auto stack = [&](std::int64_t in, std::int64_t out) {
    layers->add(std::make_unique<Conv2d>(conv_spec(in, out, 3, 1, 1), rng, /*with_bias=*/false));
    layers->add(std::make_unique<BatchNorm2d>(out));
    layers->add(std::make_unique<ReLU>());
    layers->add(std::make_unique<Conv2d>(conv_spec(out, out, 3, 1, 1), rng, /*with_bias=*/false));
    layers->add(std::make_unique<BatchNorm2d>(out));
    layers->add(std::make_unique<ReLU>());
    layers->add(std::make_unique<MaxPool2d>(Pool2dSpec{2, 2}));
  };
  stack(in_channels, 8);
  stack(8, 16);
  stack(16, 32);
  layers->add(std::make_unique<Flatten>());
  const std::int64_t spatial = input_size / 8;
  const std::int64_t flat = 32 * spatial * spatial;
  const std::int64_t feature_boundary = layers->size();
  layers->add(std::make_unique<Linear>(flat, 96, rng));
  layers->add(std::make_unique<ReLU>());
  layers->add(std::make_unique<Linear>(96, num_classes, rng));
  return Network(Architecture::kMiniVgg, in_channels, input_size, num_classes, std::move(layers),
                 feature_boundary);
}

/// EfficientNet-flavoured: SiLU stem, three MBConv stages with SE attention,
/// global average pool head.
Network build_mini_effnet(std::int64_t in_channels, std::int64_t input_size,
                          std::int64_t num_classes, Rng& rng) {
  auto layers = std::make_unique<Sequential>();
  layers->add(std::make_unique<Conv2d>(conv_spec(in_channels, 12, 3, 1, 1), rng,
                                       /*with_bias=*/false));
  layers->add(std::make_unique<BatchNorm2d>(12));
  layers->add(std::make_unique<SiLU>());
  layers->add(std::make_unique<MBConvBlock>(12, 12, 1, 1, rng));
  layers->add(std::make_unique<MBConvBlock>(12, 24, 2, 2, rng));
  layers->add(std::make_unique<MBConvBlock>(24, 24, 1, 2, rng));
  layers->add(std::make_unique<MBConvBlock>(24, 48, 2, 2, rng));
  layers->add(std::make_unique<GlobalAvgPool>());
  layers->add(std::make_unique<Flatten>());
  const std::int64_t feature_boundary = layers->size();
  layers->add(std::make_unique<Linear>(48, num_classes, rng));
  return Network(Architecture::kMiniEffNet, in_channels, input_size, num_classes,
                 std::move(layers), feature_boundary);
}

}  // namespace

Network make_network(Architecture arch, std::int64_t in_channels, std::int64_t input_size,
                     std::int64_t num_classes, std::uint64_t seed) {
  Rng rng(seed);
  switch (arch) {
    case Architecture::kBasicCnn:
      return build_basic_cnn(in_channels, input_size, num_classes, rng);
    case Architecture::kMiniResNet:
      return build_mini_resnet(in_channels, input_size, num_classes, rng);
    case Architecture::kMiniVgg:
      return build_mini_vgg(in_channels, input_size, num_classes, rng);
    case Architecture::kMiniEffNet:
      return build_mini_effnet(in_channels, input_size, num_classes, rng);
  }
  throw std::invalid_argument("make_network: unknown architecture");
}

}  // namespace usb
