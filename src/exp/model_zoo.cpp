#include "exp/model_zoo.h"

#include <cinttypes>
#include <cstdio>

#include "utils/logging.h"
#include "utils/serialize.h"

namespace usb {
namespace {

std::uint64_t spec_hash(const ModelCaseSpec& spec) {
  std::uint64_t h = 0x05b0feedULL;
  for (const char ch : spec.dataset.name) h = hash_combine(h, static_cast<std::uint64_t>(ch));
  h = hash_combine(h, static_cast<std::uint64_t>(spec.arch),
                   static_cast<std::uint64_t>(spec.attack.kind),
                   static_cast<std::uint64_t>(spec.attack.trigger_size),
                   static_cast<std::uint64_t>(spec.attack.target_class),
                   static_cast<std::uint64_t>(spec.attack.poison_rate * 1e6),
                   static_cast<std::uint64_t>(spec.model_index),
                   static_cast<std::uint64_t>(spec.scale.epochs),
                   static_cast<std::uint64_t>(spec.scale.train_size));
  return h;
}

struct ModelMeta {
  float accuracy = 0.0F;
  float asr = 0.0F;
};

void save_meta(const ModelMeta& meta, const std::string& path) {
  BinaryWriter writer;
  writer.write_f32(meta.accuracy);
  writer.write_f32(meta.asr);
  writer.save(path);
}

std::optional<ModelMeta> load_meta(const std::string& path) {
  if (!file_exists(path)) return std::nullopt;
  BinaryReader reader = BinaryReader::from_file(path);
  ModelMeta meta;
  meta.accuracy = reader.read_f32();
  meta.asr = reader.read_f32();
  return meta;
}

}  // namespace

std::string ModelCaseSpec::cache_key() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s_%s_%s_k%lld_t%lld_m%lld_%016" PRIx64,
                dataset.name.c_str(), to_string(arch).c_str(), to_string(attack.kind).c_str(),
                static_cast<long long>(attack.trigger_size),
                static_cast<long long>(attack.target_class),
                static_cast<long long>(model_index), spec_hash(*this));
  return buffer;
}

Dataset make_probe(const DatasetSpec& dataset, std::int64_t probe_size, std::uint64_t seed) {
  return generate_dataset(dataset, probe_size, seed);
}

TrainedModel train_or_load(const ModelCaseSpec& spec) {
  const std::string cache_dir = spec.scale.model_cache_dir;
  const std::string stem =
      cache_dir.empty() ? std::string() : cache_dir + "/" + spec.cache_key();

  // Per-model seeds: everything about model i is a function of (spec, i).
  const std::uint64_t base_seed = hash_combine(spec_hash(spec), 0x5eedULL);
  AttackParams attack_params = spec.attack;
  attack_params.seed = hash_combine(base_seed, 5);

  if (!stem.empty() && file_exists(stem + ".ckpt")) {
    if (const std::optional<ModelMeta> meta = load_meta(stem + ".meta")) {
      TrainedModel model{load_checkpoint(stem + ".ckpt"), nullptr, meta->accuracy, meta->asr,
                         /*from_cache=*/true};
      // Static attacks are reconstructible from the seed training used, so
      // a cached victim stamps the trigger its weights learned.
      if (spec.attack.kind == AttackKind::kBadNet || spec.attack.kind == AttackKind::kLatent) {
        model.attack = make_attack(attack_params, spec.dataset);
      }
      USB_LOG(Debug) << "model zoo: cache hit " << spec.cache_key();
      return model;
    }
  }

  const Dataset train_set =
      generate_dataset(spec.dataset, spec.scale.train_size, hash_combine(base_seed, 1));
  const Dataset test_set =
      generate_dataset(spec.dataset, spec.scale.test_size, hash_combine(base_seed, 2));

  TrainedModel model{make_network(spec.arch, spec.dataset.channels, spec.dataset.image_size,
                                  spec.dataset.num_classes, hash_combine(base_seed, 3)),
                     nullptr, 0.0F, 0.0F, /*from_cache=*/false};

  TrainConfig train_config;
  train_config.epochs = spec.scale.epochs;
  train_config.seed = hash_combine(base_seed, 4);

  model.attack = make_attack(attack_params, spec.dataset);

  // Training-stability guard: a rare bad initialization can diverge at the
  // default learning rate; retry with a gentler schedule rather than let a
  // degenerate victim pollute a table row.
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      model.network = make_network(spec.arch, spec.dataset.channels, spec.dataset.image_size,
                                   spec.dataset.num_classes,
                                   hash_combine(base_seed, 3, static_cast<std::uint64_t>(attempt)));
      train_config.lr *= 0.5F;
      USB_LOG(Warn) << "model zoo: retraining " << spec.cache_key() << " (attempt "
                    << attempt + 1 << ", lr " << train_config.lr << ")";
    }
    if (model.attack != nullptr) {
      (void)model.attack->train_backdoored(model.network, train_set, train_config);
      model.asr = model.attack->success_rate(model.network, test_set);
    } else {
      (void)train_network(model.network, train_set, train_config);
    }
    model.clean_accuracy = evaluate_accuracy(model.network, test_set);
    if (model.clean_accuracy >= 0.80F) break;
  }
  USB_LOG(Info) << "model zoo: trained " << spec.cache_key()
                << " acc=" << model.clean_accuracy << " asr=" << model.asr;

  if (!stem.empty()) {
    ensure_directory(cache_dir);
    save_checkpoint(model.network, stem + ".ckpt");
    save_meta(ModelMeta{model.clean_accuracy, model.asr}, stem + ".meta");
  }
  return model;
}

}  // namespace usb
