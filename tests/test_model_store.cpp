// ModelStore + checkpoint fidelity: the guarantees behind by-reference
// serving.
//
// The load-bearing contracts under test:
//  - checkpoint round trips are BIT-identical for all four architecture
//    families: save -> load -> forward produces bitwise-equal logits, and a
//    detector run on the restored network is byte-identical to one on the
//    original (so a checkpoint ref is a faithful stand-in for the live
//    model);
//  - the store is key-addressed: every get_or_create naming the same ref
//    shares ONE resident instance, concurrent cold-key lookups collapse to
//    a single load, and hit/miss counters account for every lookup;
//  - ref-based service scans are byte-identical to Detector::detect() on
//    the live network, for concurrent scans sharing one resident model,
//    across service pool sizes;
//  - LRU-by-bytes eviction never drops a pinned entry, the bytes ledger
//    (store counters AND the process MemoryBudget) returns to baseline
//    once entries drain, and a service's config sets its store's cap;
//  - load failures carry the checkpoint path and reach every waiter.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/checkpoint.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "report_identity.h"
#include "service/detection_service.h"
#include "service/model_store.h"
#include "utils/memory_budget.h"

namespace usb {
namespace {

DatasetSpec tiny_spec(std::int64_t num_classes = 4) {
  DatasetSpec spec;
  spec.name = "model-store-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = num_classes;
  return spec;
}

ReverseOptConfig tiny_nc_config(std::int64_t steps = 6) {
  ReverseOptConfig config;
  config.steps = steps;
  return config;
}

UsbConfig tiny_usb_config() {
  UsbConfig config;
  config.uap.max_passes = 1;
  config.uap.craft_size = 32;
  config.uap.batch_size = 16;
  config.refine_steps = 4;
  config.batch_size = 8;
  return config;
}

DetectionServiceConfig service_config(int scan_threads, int executors = 2) {
  DetectionServiceConfig config;
  config.scan_threads = scan_threads;
  config.max_concurrent_scans = executors;
  return config;
}

std::string checkpoint_path(const std::string& stem) {
  return testing::TempDir() + "model_store_" + stem + ".ckpt";
}

// Save -> load -> forward is BITWISE equal to the original network's
// forward, for every architecture family. This is the substrate of the
// by-ref scan guarantee: if the restored weights or the restored forward
// differed in even one ULP, ref scans could not be byte-identical.
TEST(Checkpoint, RoundTripForwardBitIdentityAllArchitectures) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 16, /*seed=*/71);
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    Network original = make_network(arch, spec.channels, spec.image_size, spec.num_classes,
                                    /*seed=*/72);
    original.set_training(false);
    const std::string path = checkpoint_path(to_string(arch));
    save_checkpoint(original, path);
    Network restored = load_checkpoint(path);
    restored.set_training(false);

    TensorArena arena;
    const Tensor& expected = original.forward_into(probe.images(), arena);
    const Tensor& actual = restored.forward_into(probe.images(), arena);
    EXPECT_TRUE(expected.equals(actual)) << to_string(arch) << ": restored forward diverged";
  }
}

// A full detector run on the restored network matches the original byte for
// byte, for every architecture family.
TEST(Checkpoint, RoundTripDetectByteIdentityAllArchitectures) {
  const DatasetSpec spec = tiny_spec();
  const Dataset train_set = generate_dataset(spec, 96, /*seed=*/73);
  const Dataset probe = generate_dataset(spec, 32, /*seed=*/74);
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.seed = 75;
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    Network original = make_network(arch, spec.channels, spec.image_size, spec.num_classes,
                                    /*seed=*/76);
    (void)train_network(original, train_set, train_config);
    const std::string path = checkpoint_path("detect_" + to_string(arch));
    save_checkpoint(original, path);
    Network restored = load_checkpoint(path);

    NeuralCleanse detector(tiny_nc_config(/*steps=*/3));
    const DetectionReport expected = detector.detect(original, probe);
    const DetectionReport actual = detector.detect(restored, probe);
    expect_reports_identical(expected, actual);
  }
}

TEST(Checkpoint, LoadErrorNamesThePath) {
  const std::string path = testing::TempDir() + "model_store_does_not_exist.ckpt";
  try {
    (void)load_checkpoint(path);
    FAIL() << "load_checkpoint should have thrown";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << "error lacks the path: " << error.what();
  }
}

TEST(ModelStore, KeyAddressedSharingAndCounters) {
  const DatasetSpec spec = tiny_spec();
  Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                               spec.num_classes, /*seed=*/77);
  const std::string path = checkpoint_path("sharing");
  save_checkpoint(model, path);

  ModelStore store;
  const ModelRef ref = ModelRef::from_checkpoint(path);
  const auto first = store.get_or_create(ref);
  const auto second = store.get_or_create(ref);
  EXPECT_EQ(first.get(), second.get()) << "same ref must share one resident instance";
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.misses(), 1);
  EXPECT_EQ(store.hits(), 1);
  EXPECT_EQ(store.bytes_resident(), network_resident_bytes(first->network));
  EXPECT_GT(store.bytes_resident(), 0);
}

TEST(ModelStore, InvalidRefThrows) {
  ModelStore store;
  EXPECT_THROW((void)store.get_or_create(ModelRef{}), std::invalid_argument);
}

TEST(ModelStore, ColdKeyRaceLoadsOnce) {
  const DatasetSpec spec = tiny_spec();
  Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                               spec.num_classes, /*seed=*/78);
  const std::string path = checkpoint_path("race");
  save_checkpoint(model, path);

  ModelStore store;
  const ModelRef ref = ModelRef::from_checkpoint(path);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ModelData>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { results[static_cast<std::size_t>(i)] = store.get_or_create(ref); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(store.misses(), 1) << "a cold-key race must collapse to one load";
  EXPECT_EQ(store.hits(), kThreads - 1);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result.get(), results[0].get());
  }
}

TEST(ModelStore, LoadFailureCarriesPathAndReleasesTheCell) {
  ModelStore store;
  const std::string path = testing::TempDir() + "model_store_missing.ckpt";
  const ModelRef ref = ModelRef::from_checkpoint(path);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)store.get_or_create(ref);
      FAIL() << "missing checkpoint should throw";
    } catch (const std::exception& error) {
      EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
    }
  }
  EXPECT_EQ(store.size(), 0) << "a failed load must not leave a resident entry";
}

TEST(ModelStore, LruEvictionSkipsPinnedEntries) {
  const DatasetSpec spec = tiny_spec();
  const std::string path_a = checkpoint_path("evict_a");
  const std::string path_b = checkpoint_path("evict_b");
  const std::string path_c = checkpoint_path("evict_c");
  std::int64_t one_model_bytes = 0;
  for (const std::string& path : {path_a, path_b, path_c}) {
    Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                                 spec.num_classes, /*seed=*/79);
    one_model_bytes = network_resident_bytes(model);
    save_checkpoint(model, path);
  }

  // Cap fits ~1.5 models: the second load pushes the store over cap.
  ModelStoreOptions options;
  options.max_bytes = one_model_bytes + one_model_bytes / 2;
  ModelStore store(options);

  // Pin A (the shared_ptr below IS the pin), then load B. A is the LRU
  // victim but pinned, and B's caller pin is live too — nothing evictable,
  // so the cap is transiently exceeded rather than evicting live memory.
  auto pinned_a = store.get_or_create(ModelRef::from_checkpoint(path_a));
  {
    const auto pinned_b = store.get_or_create(ModelRef::from_checkpoint(path_b));
    EXPECT_EQ(store.size(), 2);
    EXPECT_EQ(store.evictions(), 0) << "pinned entries must never be evicted";
    EXPECT_GT(store.bytes_resident(), store.max_bytes());
  }
  // B's pin dropped; C's load now reclaims B (LRU unpinned) but still
  // skips the pinned A.
  const auto pinned_c = store.get_or_create(ModelRef::from_checkpoint(path_c));
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.misses(), 3);
  // A survived: the next lookup is a hit, not a reload.
  const auto again_a = store.get_or_create(ModelRef::from_checkpoint(path_a));
  EXPECT_EQ(again_a.get(), pinned_a.get());
  EXPECT_EQ(store.misses(), 3);
}

// DetectionServiceConfig::model_store_max_bytes caps the service's store
// (scan_server's --store-bytes sets it); the default 0 leaves it unlimited.
TEST(ModelStore, ServiceConfigSetsTheStoreCap) {
  DetectionService unlimited(service_config(1));
  EXPECT_EQ(unlimited.model_store().max_bytes(), 0);

  DetectionServiceConfig config = service_config(1);
  config.model_store_max_bytes = 12345;
  DetectionService capped(config);
  EXPECT_EQ(capped.model_store().max_bytes(), 12345);
}

TEST(ModelStore, BytesLedgerReturnsToBaselineAfterDrain) {
  const std::int64_t baseline =
      MemoryBudget::process().bytes(MemoryBudget::Category::kResidentModels);
  const DatasetSpec spec = tiny_spec();
  Network model = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                               spec.num_classes, /*seed=*/80);
  const std::string path = checkpoint_path("drain");
  save_checkpoint(model, path);

  {
    ModelStore store;
    auto pinned = store.get_or_create(ModelRef::from_checkpoint(path));
    EXPECT_GT(MemoryBudget::process().bytes(MemoryBudget::Category::kResidentModels), baseline);
    // clear() with a live pin: the consumer keeps the model alive, but the
    // STORE's accounting releases — the pin is not the store's bytes.
    store.clear();
    EXPECT_EQ(store.size(), 0);
    EXPECT_EQ(store.bytes_resident(), 0);
    EXPECT_EQ(MemoryBudget::process().bytes(MemoryBudget::Category::kResidentModels), baseline);
  }
  EXPECT_EQ(MemoryBudget::process().bytes(MemoryBudget::Category::kResidentModels), baseline);
}

// The acceptance-criteria pin: a ref-based scan is byte-identical to
// Detector::detect() on the live network, for CONCURRENT scans sharing one
// resident model, across service pool sizes.
TEST(ModelStore, ConcurrentRefScansMatchDetectByteForByte) {
  const DatasetSpec spec = tiny_spec(6);
  const ProbeKey key{spec, 48, /*seed=*/83};
  const Dataset probe = generate_dataset(spec, 48, /*seed=*/83);
  const Dataset train_set = generate_dataset(spec, 96, /*seed=*/84);
  Network victim = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                                spec.num_classes, /*seed=*/85);
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.seed = 86;
  (void)train_network(victim, train_set, train_config);
  const std::string path = checkpoint_path("ref_scan");
  save_checkpoint(victim, path);

  UsbDetector reference(tiny_usb_config());
  const DetectionReport direct = reference.detect(victim, probe);

  for (const int threads : {1, 4}) {
    DetectionService service(service_config(threads, /*executors=*/4));
    std::vector<ScanHandle> handles;
    for (int i = 0; i < 4; ++i) {
      ScanRequest request;
      request.model_ref = ModelRef::from_checkpoint(path);
      request.detector = std::make_unique<UsbDetector>(tiny_usb_config());
      request.probe_key = key;
      handles.push_back(service.submit(std::move(request)));
    }
    for (const ScanHandle& handle : handles) {
      const ScanOutcome& outcome = handle.wait();
      ASSERT_EQ(outcome.status, ScanStatus::kDone) << outcome.error;
      expect_reports_identical(direct, outcome.report);
    }
    EXPECT_EQ(service.model_store().size(), 1)
        << "four scans of one ref must share one resident model";
    EXPECT_EQ(service.model_store().misses(), 1);
    EXPECT_EQ(service.model_store().hits(), 3);
  }
}

// Mixed plumbing in one service: the same victim scanned as the caller's
// shared network and by checkpoint ref produces byte-identical reports.
TEST(ModelStore, RefAndLiveSubmissionsAgree) {
  const DatasetSpec spec = tiny_spec(6);
  const ProbeKey key{spec, 48, /*seed=*/87};
  const auto victim = std::make_shared<Network>(make_network(
      Architecture::kBasicCnn, spec.channels, spec.image_size, spec.num_classes, /*seed=*/88));
  victim->freeze();
  const std::string path = checkpoint_path("mixed");
  save_checkpoint(*victim, path);

  DetectionService service(service_config(2, /*executors=*/2));
  ScanRequest live;
  live.model = victim;
  live.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  live.probe_key = key;
  ScanRequest by_ref;
  by_ref.model_ref = ModelRef::from_checkpoint(path);
  by_ref.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  by_ref.probe_key = key;
  const ScanHandle live_handle = service.submit(std::move(live));
  const ScanHandle ref_handle = service.submit(std::move(by_ref));

  const ScanOutcome& live_outcome = live_handle.wait();
  const ScanOutcome& ref_outcome = ref_handle.wait();
  ASSERT_EQ(live_outcome.status, ScanStatus::kDone) << live_outcome.error;
  ASSERT_EQ(ref_outcome.status, ScanStatus::kDone) << ref_outcome.error;
  expect_reports_identical(live_outcome.report, ref_outcome.report);
}

// A request must name exactly one model source.
TEST(ModelStore, SubmitRejectsZeroOrTwoModelSources) {
  const DatasetSpec spec = tiny_spec();
  const auto victim = std::make_shared<Network>(make_network(
      Architecture::kBasicCnn, spec.channels, spec.image_size, spec.num_classes, /*seed=*/89));
  victim->freeze();
  DetectionService service(service_config(1));

  ScanRequest neither;
  neither.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  neither.probe_key = ProbeKey{spec, 16, 90};
  EXPECT_THROW((void)service.submit(std::move(neither)), std::invalid_argument);

  ScanRequest both;
  both.model = victim;
  both.model_ref = ModelRef::from_checkpoint("x.ckpt");
  both.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  both.probe_key = ProbeKey{spec, 16, 90};
  EXPECT_THROW((void)service.submit(std::move(both)), std::invalid_argument);
}

// A ref naming a missing checkpoint resolves the scan kFailed at once: the
// error is the loader's own message, which names the path.
TEST(ModelStore, MissingCheckpointRefFailsTheScanWithThePath) {
  const DatasetSpec spec = tiny_spec();
  const std::string path = testing::TempDir() + "model_store_no_such_model.ckpt";
  DetectionService service(service_config(1));

  ScanRequest request;
  request.model_ref = ModelRef::from_checkpoint(path);
  request.detector = std::make_unique<NeuralCleanse>(tiny_nc_config());
  request.probe_key = ProbeKey{spec, 16, 91};
  const ScanHandle handle = service.submit(std::move(request));
  const ScanOutcome& outcome = handle.wait();
  EXPECT_EQ(outcome.status, ScanStatus::kFailed);
  EXPECT_NE(outcome.error.find(path), std::string::npos) << outcome.error;
}

}  // namespace
}  // namespace usb
