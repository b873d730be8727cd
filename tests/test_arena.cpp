// TensorArena + the zero-allocation refinement hot path.
//
// The acceptance-criteria pins of the arena/SIMD change:
//  - arena semantics: grow-never-shrink slot recycling, reset() reuse,
//    Scope rewind, zero allocations once warm;
//  - a pass on a recycled arena (slots and layer caches stale from a pass
//    over other input) is BIT-identical to a pass on a fresh arena on
//    every architecture, in eval and training mode, including parameter
//    gradients;
//  - layers keep their forward caches in the arena: passes on distinct
//    arenas interleave freely over one frozen network;
//  - the same holds across the AVX2/portable elementwise dispatch variants;
//  - DetectionReports are bit-identical across USB_THREADS (scan pools of
//    1 and 4) for USB, NC and TABOR — the arena path cannot introduce
//    schedule dependence — and across the dispatch variants for NC and USB
//    (whose step also runs SSIM's Gaussian filters);
//  - the steady-state refinement step of all three detectors performs ZERO
//    Tensor heap allocations (counting-allocator probe around a warmed-up
//    run_steps loop of the real per-class task).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/masked_trigger.h"
#include "defenses/neural_cleanse.h"
#include "defenses/scan_plan.h"
#include "defenses/tabor.h"
#include "nn/models.h"
#include "report_identity.h"
#include "tensor/arena.h"
#include "tensor/elementwise.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace usb {
namespace {

struct VariantGuard {
  ~VariantGuard() { ew::force_variant(std::nullopt); }
};

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = 0.0F, float hi = 1.0F) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_float(lo, hi);
  return t;
}

DatasetSpec tiny_spec(std::int64_t num_classes = 6) {
  DatasetSpec spec;
  spec.name = "arena-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = num_classes;
  return spec;
}

TEST(TensorArena, SlotRecyclingIsAllocationFreeOnceWarm) {
  TensorArena arena;
  const Shape big{4, 8, 8};
  const Shape small{2, 8, 8};

  Tensor& first = arena.alloc(big);
  const float* first_storage = first.raw();
  Tensor& second = arena.zeros(small);
  EXPECT_EQ(arena.slots_in_use(), 2U);
  for (std::int64_t i = 0; i < second.numel(); ++i) EXPECT_EQ(second[i], 0.0F);

  arena.reset();
  EXPECT_EQ(arena.slots_in_use(), 0U);
  EXPECT_EQ(arena.slot_capacity(), 2U);

  const std::uint64_t before = tensor_heap_allocations();
  for (int step = 0; step < 10; ++step) {
    Tensor& a = arena.alloc(big);
    Tensor& b = arena.alloc(small);  // shrink-fit into the zeros slot
    EXPECT_EQ(a.raw(), first_storage);  // same storage recycled every step
    EXPECT_EQ(a.shape(), big);
    EXPECT_EQ(b.shape(), small);
    arena.reset();
  }
  EXPECT_EQ(tensor_heap_allocations() - before, 0U);
}

TEST(TensorArena, ScopeRewindsAndRecyclesNestedSlots) {
  TensorArena arena;
  Tensor& outer = arena.alloc(Shape{8});
  const float* inner_storage = nullptr;
  {
    const TensorArena::Scope scope(arena);
    inner_storage = arena.alloc(Shape{16}).raw();
    EXPECT_EQ(arena.slots_in_use(), 2U);
  }
  EXPECT_EQ(arena.slots_in_use(), 1U);
  EXPECT_EQ(outer.shape(), Shape{8});
  {
    const TensorArena::Scope scope(arena);
    // The sibling scope reuses the rewound slot's storage.
    EXPECT_EQ(arena.alloc(Shape{16}).raw(), inner_storage);
  }
}

/// One forward_into + backward_into of (x, dy) on `arena`, with the output,
/// the input gradient and every parameter gradient copied out.
struct PassResult {
  Tensor y;
  Tensor dx;
  std::vector<Tensor> grads;
};

PassResult run_pass(Network& net, const Tensor& x, const Tensor& dy, TensorArena& arena) {
  PassResult result;
  result.y = net.forward_into(x, arena);
  result.dx = net.backward_into(dy, arena);
  for (const Parameter* p : net.parameters()) result.grads.push_back(p->grad);
  return result;
}

// The central bit-identity pin: for every architecture, in eval mode (the
// detection configuration) AND training mode, a pass on a recycled arena —
// every slot and layer cache stale from a pass over other input — matches a
// pass on a fresh arena bit for bit: outputs, input gradients, and
// parameter gradients.
TEST(ArenaPath, RecycledArenaMatchesFreshArenaBitwiseAllArchitectures) {
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    for (const bool training : {false, true}) {
      const std::int64_t channels = arch == Architecture::kBasicCnn ? 1 : 3;
      const std::int64_t size = arch == Architecture::kBasicCnn ? 28 : 32;
      const Tensor x = random_tensor(Shape{4, channels, size, size}, 21);
      const Tensor dy = random_tensor(Shape{4, 10}, 22, -1.0F, 1.0F);

      // Training-mode BatchNorm mutates running stats, so each side builds
      // its own network from one seed.
      Network fresh_net = make_network(arch, channels, size, 10, 17);
      fresh_net.set_training(training);
      fresh_net.set_param_grads_enabled(training);
      fresh_net.zero_grad();
      TensorArena fresh_arena;
      const PassResult fresh = run_pass(fresh_net, x, dy, fresh_arena);

      // The stale pass runs frozen, so it writes nothing to the network;
      // its larger batch leaves stale bytes in every recycled slot.
      Network net = make_network(arch, channels, size, 10, 17);
      net.freeze();
      TensorArena arena;
      (void)run_pass(net, random_tensor(Shape{6, channels, size, size}, 23),
                     random_tensor(Shape{6, 10}, 24, -1.0F, 1.0F), arena);
      arena.reset();
      net.set_training(training);
      net.set_param_grads_enabled(training);
      net.zero_grad();
      const PassResult recycled = run_pass(net, x, dy, arena);

      EXPECT_TRUE(recycled.y.equals(fresh.y)) << to_string(arch) << " training=" << training;
      EXPECT_TRUE(recycled.dx.equals(fresh.dx)) << to_string(arch) << " training=" << training;
      const std::vector<Parameter*> params = net.parameters();
      ASSERT_EQ(recycled.grads.size(), fresh.grads.size());
      for (std::size_t i = 0; i < fresh.grads.size(); ++i) {
        EXPECT_TRUE(recycled.grads[i].equals(fresh.grads[i]))
            << to_string(arch) << " grad " << params[i]->name;
      }
    }
  }
}

// The contract that lets one frozen network serve every class of a scan:
// a pass's forward cache lives in its arena, so a forward on arena B between
// a forward and its backward on arena A changes nothing A computes.
TEST(ArenaPath, InterleavedArenasOnOneNetworkMatchSoloPasses) {
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    const std::int64_t channels = arch == Architecture::kBasicCnn ? 1 : 3;
    const std::int64_t size = arch == Architecture::kBasicCnn ? 28 : 32;
    Network net = make_network(arch, channels, size, 10, 31);
    net.freeze();
    const Tensor x1 = random_tensor(Shape{2, channels, size, size}, 32);
    const Tensor x2 = random_tensor(Shape{2, channels, size, size}, 33);
    const Tensor dy = random_tensor(Shape{2, 10}, 34, -1.0F, 1.0F);

    const auto solo = [&](const Tensor& x) {
      TensorArena arena;
      const Tensor y = net.forward_into(x, arena);
      return std::make_pair(y, Tensor(net.backward_into(dy, arena)));
    };
    const auto [y1_solo, dx1_solo] = solo(x1);
    const auto [y2_solo, dx2_solo] = solo(x2);

    TensorArena a;
    TensorArena b;
    const Tensor& y1 = net.forward_into(x1, a);
    const Tensor& y2 = net.forward_into(x2, b);
    const Tensor& dx1 = net.backward_into(dy, a);
    const Tensor& dx2 = net.backward_into(dy, b);
    EXPECT_TRUE(y1.equals(y1_solo)) << to_string(arch);
    EXPECT_TRUE(dx1.equals(dx1_solo)) << to_string(arch);
    EXPECT_TRUE(y2.equals(y2_solo)) << to_string(arch);
    EXPECT_TRUE(dx2.equals(dx2_solo)) << to_string(arch);
  }
}

TEST(ArenaPath, DispatchVariantsBitIdenticalThroughNetwork) {
  if (!ew::variant_available(ew::Variant::kAvx2)) GTEST_SKIP() << "no AVX2 on this CPU";
  const VariantGuard guard;
  Network net = make_network(Architecture::kMiniEffNet, 3, 32, 10, 41);
  net.set_training(false);
  net.set_param_grads_enabled(false);
  const Tensor x = random_tensor(Shape{2, 3, 32, 32}, 42);
  const Tensor dy = random_tensor(Shape{2, 10}, 43, -1.0F, 1.0F);

  TensorArena arena;
  ew::force_variant(ew::Variant::kPortable);
  const Tensor y_portable = net.forward_into(x, arena);
  const Tensor dx_portable = net.backward_into(dy, arena);

  arena.reset();
  ew::force_variant(ew::Variant::kAvx2);
  const Tensor& y_avx2 = net.forward_into(x, arena);
  const Tensor& dx_avx2 = net.backward_into(dy, arena);

  EXPECT_TRUE(y_portable.equals(y_avx2));
  EXPECT_TRUE(dx_portable.equals(dx_avx2));
}

// ---- Detector-level pins ------------------------------------------------

UsbConfig tiny_usb_config() {
  UsbConfig config;
  config.uap.max_passes = 1;
  config.uap.craft_size = 32;
  config.uap.batch_size = 16;
  config.refine_steps = 4;
  config.batch_size = 8;
  return config;
}

ReverseOptConfig tiny_nc_config() {
  ReverseOptConfig config;
  config.steps = 4;
  return config;
}

TaborConfig tiny_tabor_config() {
  TaborConfig config;
  config.base.steps = 3;
  return config;
}


// DetectionReports pinned bit-identical at USB_THREADS in {1, 4} for all
// three masked-trigger detectors, on the arena-backed hot path.
TEST(ArenaPath, DetectReportsBitIdenticalAcrossThreadCounts) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 61);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 62);

  ThreadPool pool1(1);
  ThreadPool pool4(4);

  const UsbDetector usb(tiny_usb_config());
  const NeuralCleanse nc(tiny_nc_config());
  const Tabor tabor(tiny_tabor_config());
  for (const Detector* detector : std::vector<const Detector*>{&usb, &nc, &tabor}) {
    expect_reports_identical(detector->detect(victim, probe, pool1),
                             detector->detect(victim, probe, pool4));
  }
}

// A full detect() must also be dispatch-invariant (portable vs AVX2): NC,
// and USB, whose refinement step also runs SSIM's Gaussian filters.
TEST(ArenaPath, DetectReportsBitIdenticalAcrossDispatchVariants) {
  if (!ew::variant_available(ew::Variant::kAvx2)) GTEST_SKIP() << "no AVX2 on this CPU";
  const VariantGuard guard;
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 63);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 64);
  ThreadPool pool(1);
  const NeuralCleanse nc(tiny_nc_config());
  const UsbDetector usb(tiny_usb_config());

  ew::force_variant(ew::Variant::kPortable);
  const DetectionReport nc_portable = nc.detect(victim, probe, pool);
  const DetectionReport usb_portable = usb.detect(victim, probe, pool);
  ew::force_variant(ew::Variant::kAvx2);
  const DetectionReport nc_avx2 = nc.detect(victim, probe, pool);
  const DetectionReport usb_avx2 = usb.detect(victim, probe, pool);
  expect_reports_identical(nc_portable, nc_avx2);
  expect_reports_identical(usb_portable, usb_avx2);
}

/// Builds the real per-class refine task of `plan` for class 0 on the frozen
/// `model`, as a scan does, and counts Tensor heap allocations across
/// `steps` steady-state steps after a warm-up slice.
std::uint64_t steady_state_allocations(const ScanPlan& plan, Network& model,
                                       const Dataset& probe, std::int64_t steps) {
  model.freeze();
  ProbeBatchCache local;
  const ProbeBatchCache* cache = select_scan_probe_cache(plan.options, probe, local);
  std::shared_ptr<const ScanSharedState> shared;
  if (plan.shared_builder) shared = plan.shared_builder(model, probe);
  const ClassScanJob job = make_class_job(plan.options, 0, *cache, shared.get());
  const auto task = plan.make_task(model, probe, job);
  (void)task->run_steps(5);  // warm-up: arena slots, loader batch, caches
  const std::uint64_t before = tensor_heap_allocations();
  (void)task->run_steps(steps);
  return tensor_heap_allocations() - before;
}

// The headline acceptance criterion: a warmed-up refinement step performs
// ZERO Tensor heap allocations, for every detector. The loop deliberately
// crosses an epoch boundary (probe 48 / batch 8 -> 6 steps per epoch) to
// prove the loader's gather and the epoch reshuffle are allocation-free
// too.
TEST(ArenaPath, SteadyStateRefinementStepPerformsZeroTensorAllocations) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 71);
  Network victim = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 72);

  UsbConfig usb_config = tiny_usb_config();
  usb_config.refine_steps = 64;
  const UsbDetector usb(usb_config);
  EXPECT_EQ(steady_state_allocations(usb.plan(), victim, probe, 20), 0U);

  ReverseOptConfig nc_config = tiny_nc_config();
  nc_config.steps = 64;
  const NeuralCleanse nc(nc_config);
  EXPECT_EQ(steady_state_allocations(nc.plan(), victim, probe, 20), 0U);

  TaborConfig tabor_config = tiny_tabor_config();
  tabor_config.base.steps = 64;
  const Tabor tabor(tabor_config);
  EXPECT_EQ(steady_state_allocations(tabor.plan(), victim, probe, 20), 0U);
}

// And on the residual/SE architectures, whose layers have the most involved
// arena paths.
TEST(ArenaPath, SteadyStateZeroAllocationsOnDeepArchitectures) {
  DatasetSpec spec = tiny_spec(4);
  spec.channels = 3;
  spec.image_size = 32;
  spec.name = "arena-deep";
  const Dataset probe = generate_dataset(spec, 32, 73);

  ReverseOptConfig config = tiny_nc_config();
  config.steps = 64;
  config.batch_size = 4;
  const NeuralCleanse nc(config);
  for (const Architecture arch : {Architecture::kMiniResNet, Architecture::kMiniEffNet}) {
    Network victim = make_network(arch, 3, 32, spec.num_classes, 74);
    EXPECT_EQ(steady_state_allocations(nc.plan(), victim, probe, 12), 0U) << to_string(arch);
  }
}

// The finalize side of the contract: once a task's arena is warm, a full
// evaluation sweep over the probe performs ZERO Tensor heap allocations —
// finalize no longer allocates one blend + one activation set per batch —
// and gives the fresh arena's rate bit for bit.
TEST(ArenaPath, WarmFoolingRateEvaluationPerformsZeroTensorAllocations) {
  const DatasetSpec spec = tiny_spec();
  const Dataset probe = generate_dataset(spec, 48, 75);
  Network model = make_network(Architecture::kBasicCnn, 1, 16, spec.num_classes, 76);
  model.freeze();
  const ProbeBatchCache cache(probe, 8);

  Rng rng(77);
  const MaskedTrigger trigger(1, 16, rng, 0.1F);
  TensorArena arena;
  // The fresh arena's pass grows the eval-sized slots (refine and eval
  // batches differ, so a task's arena still grows once at its first
  // finalize).
  const double fresh = fooling_rate(model, cache, trigger, 0, arena);

  const std::uint64_t before = tensor_heap_allocations();
  const double warmed = fooling_rate(model, cache, trigger, 0, arena);
  EXPECT_EQ(tensor_heap_allocations() - before, 0U);
  EXPECT_EQ(warmed, fresh);  // slot reuse has no numeric effect
}

}  // namespace
}  // namespace usb
