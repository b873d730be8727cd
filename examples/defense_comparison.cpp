// Defense comparison: NC vs TABOR vs USB on one backdoored model.
//
// Usage: defense_comparison [badnet|latent|iad] [trigger_size]
//        defense_comparison --model-ref <ckpt> [<ckpt>...]
//
// Reproduces the paper's core comparison on a single victim: all three
// detectors reverse engineer per-class triggers; the table shows each
// method's norms, timing, verdict, and predicted target class. With the IAD
// attack, expect NC and TABOR to miss while USB still flags the target
// (paper Table 3).
//
// Since the service API redesign this example is also the DetectionService
// migration reference: instead of three blocking detect() calls it submits
// all three scans at once — they overlap on the service's pool, share one
// content-addressed probe materialization, and report per-class progress —
// then waits on the handles in method order. Reports are bit-identical to
// the legacy sequential loop.
//
// With --model-ref the fleet-triage scenario runs end-to-end from the CLI:
// each argument is a checkpoint path (nn/checkpoint.h format, e.g. saved by
// examples/scan_client or train_or_load's zoo cache) submitted BY REFERENCE
// — the service's ModelStore loads each file once and the three per-model
// scans share that single resident instance. The probe is sized from the
// checkpoint's own geometry, so mixed fleets (different architectures or
// input shapes) triage in one run.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/factory.h"
#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "defenses/tabor.h"
#include "nn/trainer.h"
#include "service/detection_service.h"
#include "utils/table.h"
#include "utils/timer.h"

namespace {

using namespace usb;

// --model-ref mode: triage every checkpoint with all three detectors
// through one service, models resolved through the ModelStore.
int run_model_refs(const std::vector<std::string>& paths) {
  DetectionService service;
  Table table({"Checkpoint", "Method", "status", "verdict", "flagged classes", "wall [m:s]"});
  int degraded = 0;

  for (const std::string& path : paths) {
    const ModelRef ref = ModelRef::from_checkpoint(path);
    // Resolve the ref up front: this loads (or finds) the resident model,
    // tells us the probe geometry, and — because the pin is held across the
    // submits below — guarantees all three scans hit the same entry.
    std::shared_ptr<const ModelData> resident;
    try {
      resident = service.model_store().get_or_create(ref);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      table.add_row({path, "-", "load failed", "-", "-", "-"});
      ++degraded;
      continue;
    }
    DatasetSpec spec;
    spec.name = "fleet-probe";
    spec.channels = resident->network.in_channels();
    spec.image_size = resident->network.input_size();
    spec.num_classes = resident->network.num_classes();
    const ProbeKey probe_key{spec, 96, /*seed=*/23};

    auto submit = [&](DetectorPtr detector) {
      ScanRequest request;
      request.model_ref = ref;
      request.detector = std::move(detector);
      request.probe_key = probe_key;
      return service.submit(std::move(request));
    };
    ReverseOptConfig nc_config;
    nc_config.steps = 24;
    TaborConfig tabor_config;
    tabor_config.base.steps = 24;
    UsbConfig usb_config;
    usb_config.uap.max_passes = 1;
    usb_config.uap.craft_size = 32;
    usb_config.refine_steps = 24;
    const ScanHandle handles[] = {submit(std::make_unique<NeuralCleanse>(nc_config)),
                                  submit(std::make_unique<Tabor>(tabor_config)),
                                  submit(std::make_unique<UsbDetector>(usb_config))};
    for (const ScanHandle& handle : handles) {
      const ScanOutcome& outcome = handle.wait();
      if (outcome.status != ScanStatus::kDone) {
        ++degraded;
        table.add_row({path, outcome.report.method.empty() ? "?" : outcome.report.method,
                       to_string(outcome.status), "-", "-", "-"});
        if (!outcome.error.empty()) std::fprintf(stderr, "%s\n", outcome.error.c_str());
        continue;
      }
      const DetectionReport& report = outcome.report;
      std::string flagged;
      for (const std::int64_t cls : report.verdict.flagged_classes) {
        flagged += (flagged.empty() ? "" : ",") + std::to_string(cls);
      }
      table.add_row({path, report.method, to_string(outcome.status),
                     report.verdict.backdoored ? "BACKDOORED" : "clean",
                     flagged.empty() ? "-" : flagged,
                     format_minutes_seconds(report.wall_seconds)});
    }
  }
  table.print();
  const ModelStore& models = service.model_store();
  std::printf("\nmodel store: %lld entries, %lld hits / %lld misses, %lld bytes resident\n",
              static_cast<long long>(models.size()), static_cast<long long>(models.hits()),
              static_cast<long long>(models.misses()),
              static_cast<long long>(models.bytes_resident()));
  return degraded == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace usb;

  if (argc > 1 && std::strcmp(argv[1], "--model-ref") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: defense_comparison --model-ref <ckpt> [<ckpt>...]\n");
      return 2;
    }
    return run_model_refs({argv + 2, argv + argc});
  }

  AttackParams params;
  params.kind = AttackKind::kBadNet;
  params.trigger_size = 3;
  params.target_class = 2;
  params.poison_rate = 0.10;
  if (argc > 1) {
    if (std::strcmp(argv[1], "latent") == 0) {
      params.kind = AttackKind::kLatent;
      params.trigger_size = 4;
    } else if (std::strcmp(argv[1], "iad") == 0) {
      params.kind = AttackKind::kIad;
    }
  }
  if (argc > 2) params.trigger_size = std::atoll(argv[2]);

  const DatasetSpec spec = DatasetSpec::cifar10_like();
  const Dataset train_set = generate_dataset(spec, 2000, /*seed=*/21);
  const Dataset test_set = generate_dataset(spec, 500, /*seed=*/22);
  // The probe is named by content address (spec, size, seed) and
  // materialized once inside the service for all three scans.
  const ProbeKey probe_key{spec, 300, /*seed=*/23};

  AttackPtr attack = make_attack(params, spec);
  const auto model = std::make_shared<Network>(make_network(
      Architecture::kMiniVgg, spec.channels, spec.image_size, spec.num_classes, /*seed=*/24));
  TrainConfig train_config;
  train_config.epochs = params.kind == AttackKind::kIad ? 6 : 4;
  train_config.seed = 25;

  const Timer train_timer;
  (void)attack->train_backdoored(*model, train_set, train_config);
  std::printf("[%.1fs] trained MiniVgg with %s attack: accuracy %.2f%%, ASR %.2f%%\n",
              train_timer.seconds(), attack->name().c_str(),
              100.0F * evaluate_accuracy(*model, test_set),
              100.0F * attack->success_rate(*model, test_set));
  std::printf("true backdoor target class: %lld\n\n",
              static_cast<long long>(params.target_class));

  // One service session: three concurrent scans of the same victim, all on
  // its one frozen instance (a pass on a frozen network writes nothing).
  model->freeze();
  DetectionService service;
  std::atomic<std::int64_t> classes_done{0};

  auto submit = [&](DetectorPtr detector) {
    ScanRequest request;
    request.model = model;
    request.detector = std::move(detector);
    request.probe_key = probe_key;
    request.options.progress = [&classes_done](std::int64_t /*target_class*/, ClassScanEvent event,
                                               double /*mask_l1*/) {
      if (event == ClassScanEvent::kFinalized) classes_done.fetch_add(1);
    };
    return service.submit(std::move(request));
  };

  const Timer scan_timer;
  ScanHandle handles[] = {submit(std::make_unique<NeuralCleanse>(ReverseOptConfig{})),
                          submit(std::make_unique<Tabor>(TaborConfig{})),
                          submit(std::make_unique<UsbDetector>(UsbConfig{}))};
  std::printf("submitted %lld scans (probe %s)\n",
              static_cast<long long>(service.scans_submitted()), probe_key.address().c_str());

  Table table({"Method", "verdict", "flagged classes", "target-class L1", "median L1",
               "wall [m:s]", "per-class sum [m:s]"});
  int degraded = 0;
  for (const ScanHandle& handle : handles) {
    const ScanOutcome& outcome = handle.wait();
    // A scan that failed, timed out, or was shed degrades THIS row only —
    // the other methods' verdicts still print. A timed-out scan has a
    // partial report; say how far each class got instead of dropping it.
    if (outcome.status != ScanStatus::kDone) {
      ++degraded;
      std::fprintf(stderr, "scan #%llu resolved %s%s%s\n",
                   static_cast<unsigned long long>(handle.id()),
                   to_string(outcome.status).c_str(), outcome.error.empty() ? "" : ": ",
                   outcome.error.c_str());
      if (outcome.status == ScanStatus::kTimedOut && !outcome.report.per_class_state.empty()) {
        std::int64_t finalized = 0;
        for (const ClassScanState state : outcome.report.per_class_state) {
          if (state == ClassScanState::kFinalized) ++finalized;
        }
        std::fprintf(stderr, "  partial report: %lld/%zu classes finalized\n",
                     static_cast<long long>(finalized), outcome.report.per_class_state.size());
      }
      const std::string method =
          outcome.report.method.empty() ? "(unknown)" : outcome.report.method;
      table.add_row({method, to_string(outcome.status), "-", "-", "-", "-", "-"});
      continue;
    }
    const DetectionReport& report = outcome.report;
    std::string flagged;
    for (const std::int64_t cls : report.verdict.flagged_classes) {
      flagged += (flagged.empty() ? "" : ",") + std::to_string(cls);
    }
    table.add_row({report.method, report.verdict.backdoored ? "BACKDOORED" : "clean",
                   flagged.empty() ? "-" : flagged,
                   format_double(report.verdict.norms[params.target_class]),
                   format_double(median(report.verdict.norms)),
                   format_minutes_seconds(report.wall_seconds),
                   format_minutes_seconds(report.total_seconds())});
  }
  table.print();
  std::printf(
      "\n%lld per-class scans finished across 3 overlapping requests in %s "
      "(probe store: %lld entries, %lld hits).\n",
      static_cast<long long>(classes_done.load()),
      format_minutes_seconds(scan_timer.seconds()).c_str(),
      static_cast<long long>(service.probe_store().size()),
      static_cast<long long>(service.probe_store().hits()));
  // Degraded rows are visible above; a partial comparison is still exit 1
  // so scripted runs notice, but only after every healthy verdict printed.
  return degraded == 0 ? 0 : 1;
}
