// Layer replays of the traced invocation. Every call here goes through the
// library's public API, timed from outside in spans; nothing inside the
// library is instrumented.
#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.h"
#include "core/targeted_uap.h"
#include "core/usb.h"
#include "data/dataloader.h"
#include "data/probe_cache.h"
#include "defenses/masked_trigger.h"
#include "defenses/scan_plan.h"
#include "metrics/ssim.h"
#include "nn/checkpoint.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "stats.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"
#include "utils/timer.h"

namespace perfbench {
namespace {

constexpr std::int64_t kStepWarmup = 3;
constexpr std::int64_t kStepsTimed = 20;
constexpr std::int64_t kKernelReps = 10;
constexpr std::int64_t kCloneReps = 5;
// Scan ids of the replays in the span dump (cycle scans count up from 1).
constexpr std::int64_t kReplayScanBase = 1000;

const char* method_name(usb::MethodKind method) {
  return method == usb::MethodKind::kUsb ? "usb" : "nc";
}

struct SpanSum {
  double duration = 0.0;
  double self = 0.0;
};

/// Duration and self time of the spans named `name` in scan `scan`.
SpanSum sum_spans(const std::vector<Span>& spans, const std::string& name, std::int64_t scan) {
  SpanSum sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name || spans[i].scan != scan) continue;
    sum.duration += spans[i].end - spans[i].start;
    sum.self += self_time(spans, static_cast<std::int64_t>(i));
  }
  return sum;
}

struct StageReplay {
  usb::DetectionReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Drives a StagedScan exactly as detect() runs the monolithic schedule:
/// prepare, then on the same pool and the same static class partition each
/// worker constructs, refines to the full budget and finalizes its classes,
/// then the ordered MAD report.
StageReplay replay_stages(usb::MethodKind method, Victim& victim, SpanRecorder& recorder,
                          std::int64_t scan) {
  const usb::DetectorPtr detector = make_bench_detector(method);
  usb::ThreadPool& pool = usb::ThreadPool::global();
  StageReplay replay;
  const double cpu_before = cpu_seconds();
  const usb::Timer timer;
  {
    const ScopedSpan scan_span(recorder, "defenses.scan", -1, scan);
    usb::StagedScan staged(detector->plan(), victim.network, victim.probe);
    {
      const ScopedSpan span(recorder, "defenses.prepare", scan_span.index(), scan);
      staged.prepare();
    }
    pool.parallel_for(staged.num_classes(), [&](std::int64_t begin, std::int64_t end, int) {
      const ScopedSpan chunk(recorder, "defenses.chunk", scan_span.index(), scan);
      for (std::int64_t t = begin; t < end; ++t) {
        {
          const ScopedSpan span(recorder, "defenses.construct", chunk.index(), scan);
          staged.construct_class(t);
        }
        {
          const ScopedSpan span(recorder, "defenses.refine", chunk.index(), scan);
          while (staged.run_round(t)) {
          }
        }
        const ScopedSpan span(recorder, "defenses.finalize", chunk.index(), scan);
        staged.finalize_class(t);
      }
    });
    const ScopedSpan span(recorder, "defenses.report", scan_span.index(), scan);
    replay.report = staged.take_report();
  }
  replay.wall_s = timer.seconds();
  replay.cpu_s = cpu_seconds() - cpu_before;
  return replay;
}

/// Share of the replayed scan's wall time covered by prepare, the slowest
/// worker's construct/refine/finalize spans, and report.
double stage_coverage(const std::vector<Span>& spans, std::int64_t scan) {
  const SpanSum whole = sum_spans(spans, "defenses.scan", scan);
  double covered = sum_spans(spans, "defenses.prepare", scan).duration +
                   sum_spans(spans, "defenses.report", scan).duration;
  std::int64_t slowest = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "defenses.chunk" || spans[i].scan != scan) continue;
    if (slowest < 0 || spans[i].end - spans[i].start >
                           spans[static_cast<std::size_t>(slowest)].end -
                               spans[static_cast<std::size_t>(slowest)].start) {
      slowest = static_cast<std::int64_t>(i);
    }
  }
  for (const Span& span : spans) {
    if (slowest >= 0 && span.parent == slowest) covered += span.end - span.start;
  }
  return whole.duration > 0.0 ? covered / whole.duration : 0.0;
}

/// Time every chunk waits, at the fan-out's join, for the slowest one.
double worker_idle(const std::vector<Span>& spans, std::int64_t scan) {
  std::vector<double> chunks;
  for (const Span& span : spans) {
    if (span.name == "defenses.chunk" && span.scan == scan) chunks.push_back(span.end - span.start);
  }
  if (chunks.empty()) return 0.0;
  const double slowest = *std::max_element(chunks.begin(), chunks.end());
  double idle = 0.0;
  for (const double chunk : chunks) idle += slowest - chunk;
  return idle;
}

/// Runs `body(worker)` once on every pool worker at the same time, so each
/// replay executes inside a scan worker's context with all workers busy —
/// the regime a K-class fan-out runs its steps in.
template <typename Body>
void on_every_worker(Body&& body) {
  usb::ThreadPool& pool = usb::ThreadPool::global();
  pool.parallel_for(pool.size(),
                    [&](std::int64_t begin, std::int64_t, int) { body(begin); });
}

/// Replays USB refinement steps (Alg. 2) call by call on a private clone:
/// trigger apply, every layer's forward and backward, the targeted loss,
/// SSIM with its gradient, and the trigger update.
void replay_steps(Victim& victim, SpanRecorder& recorder, std::int64_t scan_base) {
  const usb::UsbConfig config = usb::UsbConfig{};
  const std::int64_t target = std::max<std::int64_t>(victim.target, 0);
  on_every_worker([&](std::int64_t worker) {
    const std::int64_t scan = scan_base + worker;
    usb::Network net = usb::clone_network(victim.network);
    net.set_training(false);
    net.set_param_grads_enabled(false);
    usb::Sequential& layers = net.sequential();
    usb::Rng rng(usb::hash_combine(0x57e9ULL, static_cast<std::uint64_t>(worker)));
    usb::MaskedTrigger trigger(victim.probe.spec().channels, victim.probe.spec().image_size, rng,
                               config.lr);
    usb::DataLoader loader(victim.probe, config.batch_size, /*shuffle=*/true,
                           usb::hash_combine(0x10adULL, static_cast<std::uint64_t>(worker)));
    usb::TargetedCrossEntropy loss;
    usb::TensorArena arena;
    usb::Batch batch;
    SpanRecorder warmup(false);
    for (std::int64_t step = 0; step < kStepWarmup + kStepsTimed; ++step) {
      SpanRecorder& r = step >= kStepWarmup ? recorder : warmup;
      if (!loader.next(batch)) {
        loader.new_epoch();
        (void)loader.next(batch);
      }
      const ScopedSpan step_span(r, "step", -1, scan);
      const std::int64_t parent = step_span.index();
      arena.reset();
      const usb::Tensor* blended = nullptr;
      {
        const ScopedSpan span(r, "trigger.apply", parent, scan);
        trigger.zero_grad();
        blended = &trigger.apply_into(batch.images, arena);
      }
      const usb::Tensor* activation = blended;
      for (std::int64_t i = 0; i < layers.size(); ++i) {
        const ScopedSpan span(r, "nn." + layers.layer(i).name() + ".fwd", parent, scan);
        activation = &layers.layer(i).forward_into(*activation, arena);
      }
      usb::Tensor* grad = nullptr;
      {
        const ScopedSpan span(r, "nn.loss", parent, scan);
        (void)loss.forward(*activation, target);
        grad = &loss.backward_into(arena);
      }
      for (std::int64_t i = layers.size() - 1; i >= 0; --i) {
        const ScopedSpan span(r, "nn." + layers.layer(i).name() + ".bwd", parent, scan);
        grad = &layers.layer(i).backward_into(*grad, arena);
      }
      {
        const ScopedSpan span(r, "metrics.ssim", parent, scan);
        const usb::SsimGradRef ssim =
            usb::ssim_with_gradient(batch.images, *blended, arena, config.ssim);
        grad->add_scaled(*ssim.grad_y, -config.ssim_weight);
      }
      const ScopedSpan span(r, "trigger.step", parent, scan);
      trigger.accumulate_from_output_grad(*grad, batch.images);
      trigger.add_mask_l1_grad(config.l1_weight);
      trigger.step();
    }
  });
}

struct KernelTimes {
  double conv_fwd_s = 0.0;
  double conv_bwd_s = 0.0;
  double conv_fwd_flops = 0.0;
  double conv_bwd_flops = 0.0;
  double filter_s = 0.0;  // one step's 5 valid + 3 adjoint SSIM filters
  double step_flops = 0.0;
  double step_bytes = 0.0;
};

/// Times the conv kernels at the refinement step's shapes (dx only, as on a
/// frozen model) and SSIM's filters, each worker on its own buffers, and
/// computes one step's operation count and bytes moved from the shapes.
KernelTimes replay_kernels(Victim& victim, std::int64_t batch) {
  const usb::DatasetSpec& spec = victim.probe.spec();
  usb::Sequential& layers = victim.network.sequential();
  KernelTimes totals;

  // Operation and byte counts from shapes: walk one forward pass.
  usb::Tensor probe_batch(usb::Shape{batch, spec.channels, spec.image_size, spec.image_size});
  struct ConvCase {
    usb::Conv2dSpec spec;
    usb::Tensor weight, bias, x, y, dx;
  };
  std::vector<ConvCase> convs;
  {
    usb::Tensor x = probe_batch;
    for (std::int64_t i = 0; i < layers.size(); ++i) {
      usb::Module& layer = layers.layer(i);
      usb::Tensor y = layer.forward(x);
      const double moved = 4.0 * static_cast<double>(x.numel() + y.numel());
      totals.step_bytes += 2.0 * moved;  // forward, then the same tensors backward
      if (auto* conv = dynamic_cast<usb::Conv2d*>(&layer)) {
        const usb::Conv2dSpec& cs = conv->spec();
        const double macs = static_cast<double>(y.numel()) *
                            static_cast<double>(cs.in_channels / cs.groups * cs.kernel * cs.kernel);
        totals.conv_fwd_flops += 2.0 * macs;
        totals.conv_bwd_flops += 2.0 * macs;  // dx only
        const std::vector<usb::Parameter*> params = conv->parameters();
        convs.push_back(ConvCase{cs, params[0]->value, params.size() > 1 ? params[1]->value
                                                                            : usb::Tensor(),
                                 x, usb::Tensor(), usb::Tensor()});
        totals.step_bytes += 4.0 * static_cast<double>(params[0]->value.numel());
      } else if (layer.name() == "Linear") {
        const std::vector<usb::Parameter*> params = layer.parameters();
        const double macs = static_cast<double>(params[0]->value.numel()) *
                            static_cast<double>(batch);
        totals.step_flops += 4.0 * macs;  // forward + input gradient
        totals.step_bytes += 4.0 * static_cast<double>(params[0]->value.numel());
      }
      x = std::move(y);
    }
  }
  const std::int64_t window = usb::SsimConfig{}.window;
  const std::int64_t valid = spec.image_size - window + 1;
  const double filter_flops = 2.0 * static_cast<double>(batch * spec.channels * valid * valid *
                                                        window * window);
  totals.step_flops += totals.conv_fwd_flops + totals.conv_bwd_flops + 8.0 * filter_flops;
  totals.step_bytes += 8.0 * 4.0 * static_cast<double>(probe_batch.numel() + batch * spec.channels *
                                                        valid * valid);

  std::vector<KernelTimes> per_worker(static_cast<std::size_t>(usb::ThreadPool::global().size()));
  on_every_worker([&](std::int64_t worker) {
    KernelTimes& times = per_worker[static_cast<std::size_t>(worker)];
    std::vector<ConvCase> mine = convs;
    for (std::int64_t rep = 0; rep < kKernelReps; ++rep) {
      for (ConvCase& c : mine) {
        const usb::Timer fwd;
        usb::conv2d_forward_into(c.x, c.weight, c.bias, c.spec, c.y);
        times.conv_fwd_s += fwd.seconds();
        const usb::Timer bwd;
        usb::conv2d_backward_into(c.x, c.weight, c.y, c.spec, /*need_dx=*/true,
                                  /*need_dweight=*/false, &c.dx, nullptr, nullptr);
        times.conv_bwd_s += bwd.seconds();
      }
      const usb::Tensor kernel = usb::gaussian_kernel(window, usb::SsimConfig{}.sigma);
      usb::Tensor mu;
      usb::Tensor back;
      const usb::Timer filters;
      for (int f = 0; f < 5; ++f) usb::filter2d_valid_into(probe_batch, kernel, mu);
      for (int f = 0; f < 3; ++f) usb::filter2d_full_adjoint_into(mu, kernel, back);
      times.filter_s += filters.seconds();
    }
  });
  for (const KernelTimes& times : per_worker) {
    totals.conv_fwd_s += times.conv_fwd_s;
    totals.conv_bwd_s += times.conv_bwd_s;
    totals.filter_s += times.filter_s;
  }
  const double reps = static_cast<double>(kKernelReps * per_worker.size());
  totals.conv_fwd_s /= reps;
  totals.conv_bwd_s /= reps;
  totals.filter_s /= reps;
  return totals;
}

/// Ratio of hits to lookups; 0 before the first lookup.
double hit_rate(std::int64_t hits, std::int64_t misses) {
  return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
}

}  // namespace

bool run_layer_replays(const Options& options, Setup& setup,
                       const std::vector<ScanRecord>& reference, SpanRecorder& recorder,
                       std::vector<Metric>& metrics, std::string& failure) {
  Victim& victim = setup.victims.front();
  const auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  bool ok = true;

  // ---- exp / data: setup, per victim.
  std::vector<double> train_s, probe_ms;
  double asr_min = 1.0, acc_min = 1.0;
  std::int64_t retrains = 0;
  for (const Victim& v : setup.victims) {
    retrains += v.retrains;
    train_s.push_back(v.train_s);
    probe_ms.push_back(v.probe_build_ms);
    acc_min = std::min<double>(acc_min, v.accuracy);
    if (v.target >= 0) asr_min = std::min<double>(asr_min, v.asr);
  }
  add("exp.train_s", median(train_s), "s");
  add("exp.victim_asr_min", asr_min, "ratio");
  add("exp.victim_acc_min", acc_min, "ratio");
  add("exp.victim_retrains", static_cast<double>(retrains), "count");
  add("data.probe_build_ms", median(probe_ms), "ms");

  // ---- service: the workload's own service scans, or on the direct
  // workload the BadNet victim's NC scan submitted twice by checkpoint to
  // the workload's kind of service, a store miss and then a hit.
  std::vector<ScanRecord> service_records;
  std::string probe_checkpoint;
  std::unique_ptr<usb::DetectionService> probe_service;
  usb::DetectionService* service = setup.service.get();
  std::vector<std::string> checkpoints;
  for (const Victim& v : setup.victims) {
    if (!v.checkpoint.empty()) checkpoints.push_back(v.checkpoint);
  }
  if (service != nullptr) {
    service_records = reference;
  } else {
    probe_service = make_bench_service();
    service = probe_service.get();
    probe_checkpoint = options.work_dir + "/victim_probe.ckpt";
    usb::save_checkpoint(victim.network, probe_checkpoint);
    checkpoints.push_back(probe_checkpoint);
    for (const std::int64_t scan : {kReplayScanBase - 2, kReplayScanBase - 1}) {
      service_records.push_back(service_scan(*service, usb::MethodKind::kNc, 0, probe_checkpoint,
                                             victim.probe_key, recorder, scan));
    }
  }
  std::vector<double> submit_ms, queue_s, progress;
  for (const ScanRecord& record : service_records) {
    submit_ms.push_back(record.submit_ms);
    queue_s.push_back(record.queue_wait_s);
    progress.push_back(static_cast<double>(record.progress_events));
  }
  std::vector<double> load_ms;
  for (const std::string& path : checkpoints) {
    const ScopedSpan span(recorder, "service.ckpt_load", -1, 0);
    const usb::Timer timer;
    (void)usb::load_checkpoint(path);
    load_ms.push_back(timer.milliseconds());
  }
  const usb::Timer health_timer;
  const usb::ServiceHealth health = service->health();
  const double health_ms = health_timer.milliseconds();
  add("service.submit_ms", median(submit_ms), "ms");
  add("service.queue_wait_s", median(queue_s), "s");
  add("service.model_store_hit_rate",
      hit_rate(service->model_store().hits(), service->model_store().misses()), "ratio");
  add("data.probe_store_hit_rate",
      hit_rate(service->probe_store().hits(), service->probe_store().misses()), "ratio");
  add("service.ckpt_load_ms", median(load_ms), "ms");
  add("service.items_per_scan",
      static_cast<double>(service->rounds_dispatched()) /
          static_cast<double>(std::max<std::int64_t>(1, service->scans_submitted())),
      "count");
  add("service.progress_events_per_scan", median(progress), "count");
  add("service.budget_high_water_mb",
      static_cast<double>(health.budget_high_water_bytes) / (1024.0 * 1024.0), "MB");
  add("service.health_ms", health_ms, "ms");

  // ---- defenses: StagedScan replays of the BadNet victim's two scans,
  // checked bit for bit against the same scans run untraced.
  double coverage_min = 1.0;
  double correct = 0.0;
  for (const usb::MethodKind method : {usb::MethodKind::kUsb, usb::MethodKind::kNc}) {
    const std::string prefix = method_name(method);
    const ScanRecord* untraced = nullptr;
    ScanRecord direct;
    if (!is_service_workload(options)) {
      for (const ScanRecord& record : reference) {
        if (record.method == method && record.victim == 0) untraced = &record;
      }
    } else {  // the cycle went through the service: run the scan directly, untraced
      const usb::DetectorPtr detector = make_bench_detector(method);
      const usb::Timer timer;
      direct.report = detector->detect(victim.network, victim.probe);
      direct.wall_s = timer.seconds();
      direct.method = method;
      untraced = &direct;
    }
    const std::int64_t scan = kReplayScanBase + (method == usb::MethodKind::kUsb ? 0 : 1);
    const StageReplay replay = replay_stages(method, victim, recorder, scan);
    if (!reports_identical(replay.report, untraced->report)) {
      ok = false;
      failure += prefix + " StagedScan replay differs from detect(); ";
    }
    for (const ScanRecord& record : service_records) {
      if (record.method == method && record.victim == 0 &&
          !reports_identical(record.report, untraced->report)) {
        ok = false;
        failure += prefix + " service report differs from detect(); ";
      }
    }
    correct += verdict_correct(replay.report, victim) ? 0.5 : 0.0;

    const std::vector<Span> spans = recorder.spans();
    add("defenses." + prefix + "_prepare_s", sum_spans(spans, "defenses.prepare", scan).self, "s");
    add("defenses." + prefix + "_construct_s", sum_spans(spans, "defenses.construct", scan).self,
        "s");
    add("defenses." + prefix + "_refine_s", sum_spans(spans, "defenses.refine", scan).self, "s");
    add("defenses." + prefix + "_finalize_s", sum_spans(spans, "defenses.finalize", scan).self,
        "s");
    add("defenses." + prefix + "_report_ms", 1e3 * sum_spans(spans, "defenses.report", scan).self,
        "ms");
    add("defenses." + prefix + "_worker_idle_s", worker_idle(spans, scan), "s");
    add("trace." + prefix + "_overhead_ratio", replay.wall_s / untraced->wall_s - 1.0, "ratio");
    coverage_min = std::min(coverage_min, stage_coverage(spans, scan));
    if (method == usb::MethodKind::kUsb) {
      add("utils.pool_busy_ratio",
          replay.cpu_s / (replay.wall_s * usb::ThreadPool::global().size()), "ratio");
    }
  }
  add("trace.stage_coverage", coverage_min, "ratio");
  add("defenses.verdict_correct_rate", correct, "ratio");
  if (coverage_min < 0.95) {
    ok = false;
    failure += "stage spans cover only " + std::to_string(coverage_min) + " of a scan; ";
  }
  add("defenses.clone_kb_per_scan",
      static_cast<double>(victim.probe.spec().num_classes * usb::network_resident_bytes(victim.network)) /
          1024.0,
      "KB");

  // ---- core: Alg. 1 entry points for two classes, one per worker.
  const usb::DetectorPtr usb_detector = make_bench_detector(usb::MethodKind::kUsb);
  const usb::TargetedUapConfig uap_config =
      dynamic_cast<const usb::UsbDetector&>(*usb_detector).config().uap;
  const std::int64_t num_classes = victim.probe.spec().num_classes;
  usb::UapScanPrefix prefix;
  {
    const usb::Timer timer;
    prefix = usb::build_uap_scan_prefix(victim.network, victim.probe, uap_config, num_classes);
    add("core.prefix_s", timer.seconds(), "s");
  }
  std::vector<double> uap_s(static_cast<std::size_t>(usb::ThreadPool::global().size()));
  std::vector<double> uap_passes(uap_s.size());
  on_every_worker([&](std::int64_t worker) {
    usb::Network net = usb::clone_network(victim.network);
    net.set_training(false);
    net.set_param_grads_enabled(false);
    const std::int64_t target = (std::max<std::int64_t>(victim.target, 0) + worker) % num_classes;
    const ScopedSpan span(recorder, "core.targeted_uap", -1, kReplayScanBase + 2 + worker);
    const usb::Timer timer;
    const usb::TargetedUapResult result =
        usb::targeted_uap(net, victim.probe, target, uap_config, &prefix);
    uap_s[static_cast<std::size_t>(worker)] = timer.seconds();
    uap_passes[static_cast<std::size_t>(worker)] = static_cast<double>(result.passes);
  });
  add("core.uap_s_per_class", median(uap_s), "s");
  add("core.uap_passes", median(uap_passes), "count");

  // ---- one refinement step, call by call, on every worker.
  const std::int64_t step_scan = kReplayScanBase + 10;
  replay_steps(victim, recorder, step_scan);
  {
    const std::vector<Span> spans = recorder.spans();
    const std::int64_t workers = usb::ThreadPool::global().size();
    double step = 0.0;
    std::map<std::string, double> by_name;
    for (std::int64_t w = 0; w < workers; ++w) {
      step += sum_spans(spans, "step", step_scan + w).duration;
      for (const char* name :
           {"trigger.apply", "trigger.step", "nn.loss", "metrics.ssim", "nn.Conv2d.fwd",
            "nn.Conv2d.bwd", "nn.AvgPool2d.fwd", "nn.AvgPool2d.bwd", "nn.Linear.fwd",
            "nn.Linear.bwd"}) {
        by_name[name] += sum_spans(spans, name, step_scan + w).duration;
      }
    }
    const double steps = static_cast<double>(kStepsTimed * workers);
    const double trigger = by_name["trigger.apply"] + by_name["trigger.step"];
    add("defenses.step_ms", 1e3 * step / steps, "ms");
    add("defenses.trigger_ms_per_step", 1e3 * trigger / steps, "ms");
    add("defenses.trigger_share", trigger / step, "ratio");
    add("metrics.ssim_ms_per_step", 1e3 * by_name["metrics.ssim"] / steps, "ms");
    add("metrics.ssim_share", by_name["metrics.ssim"] / step, "ratio");
    add("nn.conv_fwd_ms_per_step", 1e3 * by_name["nn.Conv2d.fwd"] / steps, "ms");
    add("nn.conv_bwd_ms_per_step", 1e3 * by_name["nn.Conv2d.bwd"] / steps, "ms");
    add("nn.pool_ms_per_step",
        1e3 * (by_name["nn.AvgPool2d.fwd"] + by_name["nn.AvgPool2d.bwd"]) / steps, "ms");
    add("nn.linear_ms_per_step", 1e3 * (by_name["nn.Linear.fwd"] + by_name["nn.Linear.bwd"]) / steps,
        "ms");
    add("nn.loss_ms_per_step", 1e3 * by_name["nn.loss"] / steps, "ms");
  }

  // ---- nn: finalize's forward over one evaluation batch, and one clone.
  {
    const usb::ProbeBatchCache cache(victim.probe, 128);
    std::vector<double> eval_ms(static_cast<std::size_t>(usb::ThreadPool::global().size()));
    on_every_worker([&](std::int64_t worker) {
      usb::Network net = usb::clone_network(victim.network);
      net.set_training(false);
      usb::TensorArena arena;
      std::vector<double> reps;
      for (std::int64_t rep = 0; rep < kCloneReps; ++rep) {
        arena.reset();
        const usb::Timer timer;
        (void)net.forward_into(cache.batches().front().images, arena);
        reps.push_back(timer.milliseconds());
      }
      eval_ms[static_cast<std::size_t>(worker)] = median(reps);
    });
    add("nn.eval_fwd_ms_per_batch", median(eval_ms), "ms");
    std::vector<double> clone_ms;
    for (std::int64_t rep = 0; rep < kCloneReps; ++rep) {
      const usb::Timer timer;
      const usb::Network copy = usb::clone_network(victim.network);
      clone_ms.push_back(timer.milliseconds());
    }
    add("nn.clone_ms", median(clone_ms), "ms");
  }

  // ---- tensor: kernels at the step's shapes.
  const KernelTimes kernels = replay_kernels(victim, usb::UsbConfig{}.batch_size);
  add("tensor.conv_fwd_gflops", kernels.conv_fwd_flops / kernels.conv_fwd_s * 1e-9, "GFLOP/s");
  add("tensor.conv_bwd_gflops", kernels.conv_bwd_flops / kernels.conv_bwd_s * 1e-9, "GFLOP/s");
  add("tensor.filter2d_ms_per_step", 1e3 * kernels.filter_s, "ms");
  add("tensor.flops_per_step", kernels.step_flops, "FLOP");
  add("tensor.bytes_per_step", kernels.step_bytes, "B");

  if (!probe_checkpoint.empty()) std::filesystem::remove(probe_checkpoint);
  return ok;
}

}  // namespace perfbench
