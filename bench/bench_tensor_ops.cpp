// Micro-benchmarks for the kernels everything else sits on: the blocked
// GEMM core behind matmul and Linear, conv2d forward/backward (shapes
// matched to the CNN architectures in src/nn/models.cpp), the elementwise
// kernel suite (dispatched vs portable variants, GB/s), SSIM with gradient,
// a full MiniResNet forward/backward step, and the steady-state
// alloc-pressure of a real refinement step (Tensor heap allocations per
// step after warm-up — the zero-allocation contract).
//
// Results go to stdout as a table AND to BENCH_tensor_ops.json (op, shape,
// ns/iter, items/s, GFLOP/s, plus gb_per_s / speedup_vs_portable on the
// ew_* entries and allocs_per_step on the alloc-pressure entry) so
// successive PRs can diff the perf trajectory mechanically;
// bench/check_regression.py gates CI on it against
// bench/baseline/BENCH_tensor_ops.json — the ew_* and refine_step_allocs
// entries (and their extra fields) are hard-required there. Pass a path
// argument to redirect the JSON.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "defenses/scan_plan.h"
#include "fig_common.h"
#include "metrics/ssim.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "tensor/elementwise.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"
#include "utils/timer.h"

namespace {

using namespace usb;

struct BenchResult {
  std::string op;
  std::string shape;
  std::int64_t iterations = 0;
  double ns_per_iter = 0.0;
  double items_per_second = 0.0;  // 0 when the op has no item count
  double gflops = 0.0;            // 0 when the op has no flop count
  double gb_per_s = 0.0;          // >0 only on elementwise entries
  double speedup_vs_portable = 0.0;  // >0 only on elementwise entries
  double allocs_per_step = -1.0;     // >=0 only on the alloc-pressure entry
};

// Prevents the optimizer from deleting a benchmarked expression's result.
template <typename T>
void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Runs `body` until ~min_seconds of wall clock is spent (at least min_iters
/// iterations), after one untimed warmup call. `items_per_iter` doubles as
/// the flop count per iteration when `is_flops` is set.
BenchResult run_benchmark(const std::string& op, const std::string& shape,
                          const std::function<void()>& body, double items_per_iter = 0.0,
                          bool is_flops = false, double min_seconds = 0.25,
                          std::int64_t min_iters = 3) {
  body();  // warmup
  std::int64_t iters = 0;
  const Timer timer;
  while (iters < min_iters || timer.seconds() < min_seconds) {
    body();
    ++iters;
  }
  const double elapsed = timer.seconds();
  BenchResult result;
  result.op = op;
  result.shape = shape;
  result.iterations = iters;
  result.ns_per_iter = elapsed * 1e9 / static_cast<double>(iters);
  if (items_per_iter > 0.0) {
    result.items_per_second = items_per_iter * static_cast<double>(iters) / elapsed;
    if (is_flops) result.gflops = result.items_per_second / 1e9;
  }
  return result;
}

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = 0.0F, float hi = 1.0F) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_float(lo, hi);
  return t;
}

BenchResult bench_matmul(std::int64_t n) {
  const Tensor a = random_tensor(Shape{n, n}, 1, -1.0F, 1.0F);
  const Tensor b = random_tensor(Shape{n, n}, 2, -1.0F, 1.0F);
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  return run_benchmark("matmul", std::to_string(n) + "x" + std::to_string(n),
                       [&] {
                         Tensor c;
                         matmul_into(a, b, c);
                         do_not_optimize(c);
                       },
                       flops, /*is_flops=*/true);
}

BenchResult bench_matmul_transpose_b(std::int64_t n) {
  // The Linear-forward orientation: A (N,K) x B^T with B stored (N,K).
  const Tensor a = random_tensor(Shape{n, n}, 21, -1.0F, 1.0F);
  const Tensor b = random_tensor(Shape{n, n}, 22, -1.0F, 1.0F);
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  return run_benchmark("matmul_transpose_b", std::to_string(n) + "x" + std::to_string(n),
                       [&] {
                         Tensor c(Shape{n, n});
                         gemm(/*transpose_a=*/false, /*transpose_b=*/true, n, n, n, a.raw(), n,
                              b.raw(), n, c.raw(), n, /*accumulate=*/false);
                         do_not_optimize(c);
                       },
                       flops, /*is_flops=*/true);
}

double conv_flops(const Conv2dSpec& spec, std::int64_t batch, std::int64_t image) {
  const std::int64_t out = spec.out_size(image);
  return 2.0 * static_cast<double>(batch) * static_cast<double>(spec.out_channels) *
         static_cast<double>(out * out) *
         static_cast<double>((spec.in_channels / spec.groups) * spec.kernel * spec.kernel);
}

Conv2dSpec make_spec(std::int64_t in, std::int64_t out, std::int64_t kernel, std::int64_t stride,
                     std::int64_t padding) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = kernel;
  spec.stride = stride;
  spec.padding = padding;
  return spec;
}

std::string conv_shape_label(const Conv2dSpec& spec, std::int64_t batch, std::int64_t image) {
  char label[128];
  std::snprintf(label, sizeof(label), "b%lldx%lldx%lldx%lld", static_cast<long long>(batch),
                static_cast<long long>(spec.in_channels), static_cast<long long>(image),
                static_cast<long long>(image));
  return label;
}

BenchResult bench_conv_forward(const std::string& name, const Conv2dSpec& spec,
                               std::int64_t batch, std::int64_t image, std::uint64_t seed) {
  const Tensor x = random_tensor(Shape{batch, spec.in_channels, image, image}, seed);
  const Tensor w = random_tensor(spec.weight_shape(), seed + 1, -0.2F, 0.2F);
  const Tensor bias = random_tensor(Shape{spec.out_channels}, seed + 2, -0.1F, 0.1F);
  return run_benchmark(name, conv_shape_label(spec, batch, image),
                       [&] {
                         Tensor y;
                         conv2d_forward_into(x, w, bias, spec, y);
                         do_not_optimize(y);
                       },
                       conv_flops(spec, batch, image), /*is_flops=*/true);
}

BenchResult bench_conv_backward(const std::string& name, const Conv2dSpec& spec,
                                std::int64_t batch, std::int64_t image, std::uint64_t seed) {
  const Tensor x = random_tensor(Shape{batch, spec.in_channels, image, image}, seed);
  const Tensor w = random_tensor(spec.weight_shape(), seed + 1, -0.2F, 0.2F);
  const std::int64_t out = spec.out_size(image);
  const Tensor dy =
      random_tensor(Shape{batch, spec.out_channels, out, out}, seed + 2, -1.0F, 1.0F);
  // dX and dW each cost roughly one forward; count both.
  return run_benchmark(name, conv_shape_label(spec, batch, image),
                       [&] {
                         Tensor dx(x.shape());
                         Tensor dweight(w.shape());
                         Tensor dbias(Shape{spec.out_channels});
                         conv2d_backward_into(x, w, dy, spec, /*need_dx=*/true,
                                              /*need_dweight=*/true, &dx, &dweight, &dbias);
                         do_not_optimize(dx);
                         do_not_optimize(dweight);
                       },
                       2.0 * conv_flops(spec, batch, image), /*is_flops=*/true);
}

// ---- Elementwise kernel suite -------------------------------------------
//
// Each entry runs the dispatched kernel (AVX2 where the CPU has it) and the
// forced-portable variant on the same L2-resident buffers, reporting GB/s
// of the dispatched form and its speedup over portable. The repetition
// count keeps one iteration well above the regression gate's noise floor.

constexpr std::int64_t kEwElems = 16384;  // 64 KiB per buffer: L2-resident
constexpr std::int64_t kEwReps = 256;     // kernel calls per timed iteration

struct EwBuffers {
  Tensor a, b, c, d;
  EwBuffers()
      : a(Shape{kEwElems}), b(Shape{kEwElems}), c(Shape{kEwElems}), d(Shape{kEwElems}) {
    Rng rng(1234);
    for (std::int64_t i = 0; i < kEwElems; ++i) {
      a[i] = rng.uniform_float(-1.0F, 1.0F);
      b[i] = rng.uniform_float(0.001F, 0.999F);
      c[i] = rng.uniform_float(0.0F, 1.0F);
      d[i] = rng.uniform_float(0.0F, 0.1F);
    }
  }
};

BenchResult bench_elementwise(const std::string& name, double bytes_per_element,
                              const std::function<void()>& body) {
  char shape[32];
  std::snprintf(shape, sizeof(shape), "%lldx%lld", static_cast<long long>(kEwReps),
                static_cast<long long>(kEwElems));
  const double elements = static_cast<double>(kEwElems) * static_cast<double>(kEwReps);
  BenchResult dispatched = run_benchmark(name, shape, body, elements);
  dispatched.gb_per_s = dispatched.items_per_second * bytes_per_element / 1e9;
  if (ew::variant_available(ew::Variant::kAvx2) &&
      ew::active_variant() == ew::Variant::kAvx2) {
    ew::force_variant(ew::Variant::kPortable);
    const BenchResult portable = run_benchmark(name, shape, body, elements);
    ew::force_variant(std::nullopt);
    dispatched.speedup_vs_portable = portable.ns_per_iter / dispatched.ns_per_iter;
  } else {
    dispatched.speedup_vs_portable = 1.0;  // portable IS the dispatched kernel
  }
  return dispatched;
}

std::vector<BenchResult> bench_elementwise_suite() {
  static EwBuffers buffers;  // static: keep alive across the timed lambdas
  Tensor out(Shape{kEwElems});
  Tensor out2(Shape{kEwElems});
  std::vector<BenchResult> results;

  // relu_fwd: read x, write y -> 8 bytes/element.
  results.push_back(bench_elementwise("ew_relu_fwd", 8.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::relu_fwd(buffers.a.raw(), out.raw(), kEwElems);
    }
    do_not_optimize(out.raw());
  }));
  // sigmoid_bwd: read s + dy, write dx -> 12 bytes/element.
  results.push_back(bench_elementwise("ew_sigmoid_bwd", 12.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::sigmoid_bwd(buffers.b.raw(), buffers.a.raw(), out.raw(), kEwElems);
    }
    do_not_optimize(out.raw());
  }));
  // axpy: read src, read+write dst -> 12 bytes/element.
  results.push_back(bench_elementwise("ew_axpy", 12.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::axpy(out.raw(), buffers.a.raw(), 0.001F, kEwElems);
    }
    do_not_optimize(out.raw());
  }));
  // blend: read x + m + p, write out -> 16 bytes/element.
  results.push_back(bench_elementwise("ew_blend", 16.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::blend(buffers.a.raw(), buffers.b.raw(), buffers.c.raw(), out.raw(), kEwElems);
    }
    do_not_optimize(out.raw());
  }));
  // clamp: read+write dst -> 8 bytes/element.
  results.push_back(bench_elementwise("ew_clamp", 8.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::clamp(out.raw(), -0.5F, 0.5F, kEwElems);
    }
    do_not_optimize(out.raw());
  }));
  // adam: read grad, read+write m/v/value -> 28 bytes/element. The moment
  // buffers evolve across reps; that only changes values, not cost.
  const ew::AdamParams adam{0.001F, 0.5F, 0.9F, 1e-8F, 0.5F, 0.19F};
  results.push_back(bench_elementwise("ew_adam_update", 28.0, [&] {
    for (std::int64_t r = 0; r < kEwReps; ++r) {
      ew::adam_update(out.raw(), buffers.a.raw(), out2.raw(), buffers.d.raw(), kEwElems, adam);
    }
    do_not_optimize(out.raw());
  }));
  return results;
}

// ---- Steady-state alloc pressure ----------------------------------------
//
// Runs the REAL per-class NC refinement task (plan()->make_task) and counts
// Tensor heap allocations per steady-state step after warm-up. The contract
// is exactly zero; check_regression.py fails CI on anything else. ns/iter
// is the per-step wall clock, gated like any kernel.
BenchResult bench_refine_step_alloc_pressure() {
  DatasetSpec spec;
  spec.name = "bench-alloc";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = 6;
  const Dataset probe = generate_dataset(spec, 64, 7);
  Network model = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 3);

  ReverseOptConfig config;
  config.steps = 1 << 20;  // never exhausts during the bench
  config.batch_size = 16;
  const NeuralCleanse detector(config);
  const ScanPlan plan = detector.plan();
  ProbeBatchCache local;
  const ProbeBatchCache* cache = select_scan_probe_cache(plan.options, probe, local);
  const ClassScanJob job = make_class_job(plan.options, 0, *cache);
  model.freeze();  // a scan's tasks all run on the one frozen model
  const auto task = plan.make_task(model, probe, job);
  (void)task->run_steps(8);  // warm-up: arena slots, loader batch, caches

  const std::uint64_t allocs_before = tensor_heap_allocations();
  std::int64_t steps = 0;
  const Timer timer;
  while (steps < 32 || timer.seconds() < 0.25) steps += task->run_steps(8);
  const double elapsed = timer.seconds();
  const std::uint64_t allocs = tensor_heap_allocations() - allocs_before;

  BenchResult result;
  result.op = "refine_step_allocs";
  result.shape = "nc_basiccnn_16x1x16x16";
  result.iterations = steps;
  result.ns_per_iter = elapsed * 1e9 / static_cast<double>(steps);
  result.items_per_second = static_cast<double>(steps) / elapsed;
  result.allocs_per_step = static_cast<double>(allocs) / static_cast<double>(steps);
  return result;
}

BenchResult bench_ssim_with_gradient() {
  const Tensor x = random_tensor(Shape{16, 3, 32, 32}, 9);
  const Tensor y = random_tensor(Shape{16, 3, 32, 32}, 10);
  TensorArena arena;
  return run_benchmark("ssim_with_gradient", "16x3x32x32", [&] {
    const TensorArena::Scope scope(arena);
    const SsimGradRef ref = ssim_with_gradient(x, y, arena);
    const Tensor grad = *ref.grad_y;  // copy out of the scoped arena
    do_not_optimize(grad);
    do_not_optimize(ref.value);
  });
}

BenchResult bench_miniresnet_train_step() {
  Network net = make_network(Architecture::kMiniResNet, 3, 32, 10, 11);
  net.set_training(true);
  const Tensor x = random_tensor(Shape{32, 3, 32, 32}, 12);
  std::vector<std::int64_t> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<std::int64_t>(i % 10);
  SoftmaxCrossEntropy loss;
  TensorArena arena;
  return run_benchmark("miniresnet_train_step", "32x3x32x32", [&] {
    arena.reset();
    const Tensor& logits = net.forward_into(x, arena);
    do_not_optimize(loss.forward(logits, labels));
    do_not_optimize(net.backward_into(loss.backward_into(arena), arena));
    net.zero_grad();
  });
}

BenchResult bench_miniresnet_input_grad_only() {
  // The detection configuration: eval mode, parameter gradients off.
  Network net = make_network(Architecture::kMiniResNet, 3, 32, 10, 13);
  net.set_training(false);
  net.set_param_grads_enabled(false);
  const Tensor x = random_tensor(Shape{16, 3, 32, 32}, 14);
  TargetedCrossEntropy loss;
  TensorArena arena;
  return run_benchmark("miniresnet_input_grad_only", "16x3x32x32", [&] {
    arena.reset();
    const Tensor& logits = net.forward_into(x, arena);
    do_not_optimize(loss.forward(logits, 0));
    do_not_optimize(net.backward_into(loss.backward_into(arena), arena));
  });
}

bool write_json(const std::vector<BenchResult>& results, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_tensor_ops: cannot open " << path << " for writing\n";
    return false;
  }
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // std::string assembly (not a fixed buffer): snprintf returns would-be
    // lengths on truncation, so offset arithmetic over a char array would
    // overflow the moment an op/shape name outgrows it.
    char number[256];
    std::string line = "  {\"op\": \"" + r.op + "\", \"shape\": \"" + r.shape + "\"";
    std::snprintf(number, sizeof(number),
                  ", \"iterations\": %lld, \"ns_per_iter\": %.1f, "
                  "\"items_per_second\": %.1f, \"gflops\": %.3f",
                  static_cast<long long>(r.iterations), r.ns_per_iter, r.items_per_second,
                  r.gflops);
    line += number;
    if (r.gb_per_s > 0.0) {
      std::snprintf(number, sizeof(number),
                    ", \"gb_per_s\": %.3f, \"speedup_vs_portable\": %.3f", r.gb_per_s,
                    r.speedup_vs_portable);
      line += number;
    }
    if (r.allocs_per_step >= 0.0) {
      std::snprintf(number, sizeof(number), ", \"allocs_per_step\": %.3f", r.allocs_per_step);
      line += number;
    }
    line += i + 1 < results.size() ? "},\n" : "}\n";
    out << line;
  }
  out << "]\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  usb::figbench::BenchArgs args(argc, argv);
  const std::string json_path = args.take_positional().value_or("BENCH_tensor_ops.json");
  args.finish();

  std::vector<BenchResult> results;
  for (const std::int64_t n : {64, 128, 256, 512}) results.push_back(bench_matmul(n));
  results.push_back(bench_matmul_transpose_b(256));

  // Legacy shapes (kept for cross-PR trajectory continuity).
  const Conv2dSpec legacy = make_spec(8, 16, 3, 1, 1);
  for (const std::int64_t b : {16, 64}) {
    results.push_back(bench_conv_forward("conv2d_forward", legacy, b, 32, 3));
  }
  for (const std::int64_t b : {16, 64}) {
    results.push_back(bench_conv_backward("conv2d_backward", legacy, b, 32, 6));
  }

  // Shapes matched to the CNN architectures in src/nn/models.cpp.
  results.push_back(
      bench_conv_forward("conv_basiccnn_conv1", make_spec(3, 16, 5, 1, 0), 32, 32, 100));
  results.push_back(
      bench_conv_forward("conv_basiccnn_conv2", make_spec(16, 32, 5, 1, 0), 32, 14, 110));
  results.push_back(
      bench_conv_forward("conv_resnet_stem", make_spec(3, 8, 3, 1, 1), 32, 32, 120));
  results.push_back(
      bench_conv_forward("conv_vgg_stack2", make_spec(8, 16, 3, 1, 1), 32, 16, 130));

  for (BenchResult& r : bench_elementwise_suite()) results.push_back(std::move(r));
  results.push_back(bench_refine_step_alloc_pressure());

  results.push_back(bench_ssim_with_gradient());
  results.push_back(bench_miniresnet_train_step());
  results.push_back(bench_miniresnet_input_grad_only());

  std::printf("%-28s %-22s %10s %14s %16s %10s %8s %8s %8s\n", "op", "shape", "iters", "ns/iter",
              "items/s", "GFLOP/s", "GB/s", "spdup", "allocs");
  for (const BenchResult& r : results) {
    std::printf("%-28s %-22s %10lld %14.1f %16.1f %10.2f %8.2f %8.2f %8.2f\n", r.op.c_str(),
                r.shape.c_str(), static_cast<long long>(r.iterations), r.ns_per_iter,
                r.items_per_second, r.gflops, r.gb_per_s, r.speedup_vs_portable,
                r.allocs_per_step);
  }
  if (!write_json(results, json_path)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
