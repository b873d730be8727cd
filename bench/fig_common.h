// Shared plumbing for the figure-reproduction benches: strict command-line
// handling, victim construction through the model zoo (cached across
// benches), PPM dumping, and terminal ASCII previews so figure content is
// visible in bench_output.txt.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "attacks/badnet.h"
#include "exp/model_zoo.h"
#include "utils/image_io.h"
#include "utils/serialize.h"

namespace usb::figbench {

/// Strict bench argument handling, shared by every fig/table bench: no
/// bench takes a flag, positionals must be claimed via take_positional, and
/// anything left when finish() runs — a flag, a typo, an extra positional —
/// aborts with exit code 2 instead of being silently ignored.
///
///   BenchArgs args(argc, argv);
///   const std::string json = args.take_positional().value_or("OUT.json");
///   args.finish();
class BenchArgs {
 public:
  BenchArgs(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    consumed_.assign(args_.size(), false);
  }

  /// Consumes the next unclaimed positional (non --) argument.
  [[nodiscard]] std::optional<std::string> take_positional() {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!consumed_[i] && args_[i].compare(0, 2, "--") != 0) {
        consumed_[i] = true;
        return args_[i];
      }
    }
    return std::nullopt;
  }

  /// Call after every take_*: rejects whatever was not claimed, printing
  /// `usage` (when given) after the offending arguments.
  void finish(const std::string& usage = "") const {
    bool bad = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (consumed_[i]) continue;
      const bool is_flag = args_[i].compare(0, 2, "--") == 0;
      std::fprintf(stderr, "%s: unknown %s %s\n", program_.c_str(),
                   is_flag ? "flag" : "argument", args_[i].c_str());
      bad = true;
    }
    if (!bad) return;
    if (!usage.empty()) std::fprintf(stderr, "%s\n", usage.c_str());
    std::exit(2);
  }

 private:
  std::string program_;
  std::vector<std::string> args_;
  std::vector<bool> consumed_;
};

inline const char* kFigureDir = "figures";

/// Saves a CHW tensor in [0,1] as PPM/PGM under figures/ and prints a small
/// ASCII rendering.
inline void dump_image(const Tensor& chw, const std::string& name, bool print_ascii = true) {
  ensure_directory(kFigureDir);
  Image image;
  image.channels = chw.dim(0);
  image.height = chw.dim(1);
  image.width = chw.dim(2);
  image.pixels.assign(chw.data().begin(), chw.data().end());
  const std::string path = std::string(kFigureDir) + "/" + name;
  write_image(image, path);
  std::printf("  wrote %s\n", path.c_str());
  if (print_ascii) {
    for (const std::string& row : ascii_art(image, 32)) std::printf("    %s\n", row.c_str());
  }
}

/// Saves several same-sized CHW tensors as one horizontal strip.
inline void dump_strip(const std::vector<Tensor>& images, const std::string& name) {
  ensure_directory(kFigureDir);
  std::vector<Image> converted;
  converted.reserve(images.size());
  for (const Tensor& chw : images) {
    Image image;
    image.channels = chw.dim(0);
    image.height = chw.dim(1);
    image.width = chw.dim(2);
    image.pixels.assign(chw.data().begin(), chw.data().end());
    converted.push_back(std::move(image));
  }
  const std::string path = std::string(kFigureDir) + "/" + name;
  write_image_strip(converted, path);
  std::printf("  wrote %s (%zu panels)\n", path.c_str(), images.size());
}

/// Trains (or loads) one BadNet victim through the model zoo.
inline TrainedModel badnet_victim(const DatasetSpec& spec, Architecture arch,
                                  std::int64_t trigger_size, std::int64_t target,
                                  const ExperimentScale& scale, std::int64_t model_index = 0) {
  ModelCaseSpec model_spec;
  model_spec.dataset = spec;
  model_spec.arch = arch;
  model_spec.attack.kind = AttackKind::kBadNet;
  model_spec.attack.trigger_size = trigger_size;
  model_spec.attack.target_class = target;
  model_spec.attack.poison_rate = 0.15;
  model_spec.model_index = model_index;
  model_spec.scale = scale;
  return train_or_load(model_spec);
}

/// Ground-truth trigger image of a (re)constructible BadNet attack.
inline Tensor true_trigger_image(const TrainedModel& model) {
  const auto* badnet = dynamic_cast<const BadNet*>(model.attack.get());
  if (badnet == nullptr) {
    throw std::runtime_error("true_trigger_image: victim is not a BadNet attack");
  }
  return badnet->trigger_image();
}

}  // namespace usb::figbench
