// Tests for the blocked GEMM core and its determinism contract:
//  - exact (bitwise) agreement with a naive ascending-order reference across
//    odd tail shapes, for all three transpose variants and accumulation;
//  - bit-identical matmul_into results for any pool size / nesting depth, with
//    tiles running inline, spilling to idle workers, or on the global pool;
//  - parallel_for_deterministic semantics: full coverage, nested calls from
//    saturated pools and 1-worker pools complete (no deadlock), exceptions
//    propagate and do not poison the pool;
//  - Im2colWorkspace grow-never-shrink behaviour and the blocked batched
//    conv2d_forward_into against a direct-convolution reference.
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace usb {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed, float lo = -1.0F, float hi = 1.0F) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_float(lo, hi);
  return t;
}

/// The reference the blocked core promises to reproduce EXACTLY for K <= KC:
/// one float accumulator per element, products added in ascending-p order.
Tensor ascending_order_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at2(i, p) * b.at2(p, j);
      c.at2(i, j) = acc;
    }
  }
  return c;
}

Tensor transposed(const Tensor& t) {
  Tensor out(Shape{t.dim(1), t.dim(0)});
  for (std::int64_t i = 0; i < t.dim(0); ++i) {
    for (std::int64_t j = 0; j < t.dim(1); ++j) out.at2(j, i) = t.at2(i, j);
  }
  return out;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(0, std::memcmp(got.raw(), want.raw(),
                           static_cast<std::size_t>(got.numel()) * sizeof(float)))
      << what;
}

// Every (M, N, K) below stays under one KC block, so the blocked result must
// be bit-identical to the ascending-order reference. The dims sweep the
// micro-kernel tails: 1 (degenerate), 3/7/17 (partial MR and NR panels), 64
// (full panels), 65 (full panels plus a 1-wide tail).
const std::int64_t kTailDims[] = {1, 3, 7, 17, 64, 65};

TEST(BlockedGemm, ExactlyMatchesAscendingNaive) {
  std::uint64_t seed = 1;
  for (const std::int64_t m : kTailDims) {
    for (const std::int64_t n : kTailDims) {
      for (const std::int64_t k : kTailDims) {
        const Tensor a = random_tensor(Shape{m, k}, seed++);
        const Tensor b = random_tensor(Shape{k, n}, seed++);
        const Tensor want = ascending_order_matmul(a, b);
        Tensor got;
        matmul_into(a, b, got);
        ASSERT_EQ(got.shape(), want.shape());
        for (std::int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(BlockedGemm, TransposeAExactlyMatchesAscendingNaive) {
  std::uint64_t seed = 1000;
  for (const std::int64_t m : kTailDims) {
    for (const std::int64_t n : kTailDims) {
      for (const std::int64_t k : kTailDims) {
        const Tensor a_stored = random_tensor(Shape{k, m}, seed++);  // holds A^T
        const Tensor b = random_tensor(Shape{k, n}, seed++);
        const Tensor want = ascending_order_matmul(transposed(a_stored), b);
        Tensor got;
        matmul_transpose_a_into(a_stored, b, got);
        ASSERT_EQ(got.shape(), want.shape());
        for (std::int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(BlockedGemm, TransposeBExactlyMatchesAscendingNaive) {
  std::uint64_t seed = 2000;
  for (const std::int64_t m : kTailDims) {
    for (const std::int64_t n : kTailDims) {
      for (const std::int64_t k : kTailDims) {
        const Tensor a = random_tensor(Shape{m, k}, seed++);
        const Tensor b_stored = random_tensor(Shape{n, k}, seed++);  // holds B^T
        const Tensor want = ascending_order_matmul(a, transposed(b_stored));
        Tensor got(Shape{m, n});
        gemm(/*transpose_a=*/false, /*transpose_b=*/true, m, n, k, a.raw(), k, b_stored.raw(), k,
             got.raw(), n, /*accumulate=*/false);
        ASSERT_EQ(got.shape(), want.shape());
        for (std::int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(BlockedGemm, AccumulateAddsExactlyOntoC) {
  const Tensor a = random_tensor(Shape{17, 65}, 31);
  const Tensor b = random_tensor(Shape{65, 33}, 32);
  const Tensor c0 = random_tensor(Shape{17, 33}, 33);
  const Tensor product = ascending_order_matmul(a, b);
  Tensor c = c0;
  gemm(false, false, 17, 33, 65, a.raw(), 65, b.raw(), 33, c.raw(), 33, /*accumulate=*/true);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    ASSERT_EQ(c[i], c0[i] + product[i]) << "i=" << i;
  }
}

TEST(BlockedGemm, MultiKcBlockMatchesDoubleReference) {
  // K = 700 spans three KC blocks; block sums change the float rounding, so
  // compare against a double-precision reference with a tolerance instead.
  const std::int64_t m = 70;
  const std::int64_t n = 70;
  const std::int64_t k = 700;
  const Tensor a = random_tensor(Shape{m, k}, 41);
  const Tensor b = random_tensor(Shape{k, n}, 42);
  Tensor got;
  matmul_into(a, b, got);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at2(i, p)) * b.at2(p, j);
      }
      ASSERT_NEAR(got.at2(i, j), acc, 1e-3) << "i=" << i << " j=" << j;
    }
  }
}

// ------------------------------------------------------------ determinism --

TEST(BlockedGemm, BitIdenticalAcrossPoolSizesAndNesting) {
  // Big enough to tile-parallelize (6 tiles): inline on the main thread vs
  // inside a 1-worker pool (serial baseline) vs inside the workers of a
  // 4-worker pool that is under-subscribed (2 jobs on 4 workers), where the
  // two idle workers steal tiles — all must agree bit-for-bit.
  const Tensor a = random_tensor(Shape{256, 64}, 51);
  const Tensor b = random_tensor(Shape{64, 256}, 52);
  Tensor direct;
  matmul_into(a, b, direct);

  Tensor from_serial_pool;
  {
    ThreadPool pool(1);
    pool.parallel_for(1, [&](std::int64_t, std::int64_t, int) {
      matmul_into(a, b, from_serial_pool);
    });
  }
  std::vector<Tensor> from_undersubscribed_pool(2);
  {
    ThreadPool pool(4);
    // Two chunks dispatch to real workers (count >= 2), leaving two workers
    // idle to claim the nested GEMM tiles.
    pool.parallel_for(2, [&](std::int64_t begin, std::int64_t end, int) {
      for (std::int64_t i = begin; i < end; ++i) {
        matmul_into(a, b, from_undersubscribed_pool[static_cast<std::size_t>(i)]);
      }
    });
  }
  expect_bitwise_equal(from_serial_pool, direct, "1-worker pool vs direct");
  expect_bitwise_equal(from_undersubscribed_pool[0], direct, "under-subscribed pool job 0");
  expect_bitwise_equal(from_undersubscribed_pool[1], direct, "under-subscribed pool job 1");
}

TEST(BlockedGemm, SaturatedPoolRunsTilesInlineAndMatches) {
  // Every worker busy with its own GEMM: nested tile submissions find no
  // idle workers and drain inline; all four results must match the direct
  // computation bitwise.
  const Tensor a = random_tensor(Shape{192, 64}, 61);
  const Tensor b = random_tensor(Shape{64, 192}, 62);
  Tensor direct;
  matmul_into(a, b, direct);

  ThreadPool pool(4);
  std::vector<Tensor> results(4);
  pool.parallel_for(4, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) {
      matmul_into(a, b, results[static_cast<std::size_t>(i)]);
    }
  });
  for (const Tensor& r : results) expect_bitwise_equal(r, direct, "saturated-pool worker");
}

// ------------------------------------------- parallel_for_deterministic --

TEST(ParallelForDeterministic, ExecutesEveryTileExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for_deterministic(1000, [&](std::int64_t tile) {
    ++hits[static_cast<std::size_t>(tile)];  // disjoint writes
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForDeterministic, NestedInsideSingleWorkerPoolCompletes) {
  // The ThreadPool(1) in-worker inline path: a GEMM issued from inside the
  // pool's only worker must complete (tiles run inline; no free workers to
  // wait on, so anything else would deadlock).
  ThreadPool pool(1);
  const Tensor a = random_tensor(Shape{256, 64}, 71);
  const Tensor b = random_tensor(Shape{64, 256}, 72);
  Tensor nested;
  pool.parallel_for(1, [&](std::int64_t, std::int64_t, int) {
    // Explicit nested helper call plus a full GEMM on top of it.
    std::vector<int> hits(64, 0);
    pool.parallel_for_deterministic(64, [&](std::int64_t t) { ++hits[static_cast<std::size_t>(t)]; });
    for (const int h : hits) {
      if (h != 1) throw std::logic_error("nested tile dropped or duplicated");
    }
    matmul_into(a, b, nested);
  });
  Tensor direct;
  matmul_into(a, b, direct);
  expect_bitwise_equal(nested, direct, "nested single-worker GEMM");
}

TEST(ParallelForDeterministic, NestedFromSaturatedWorkersCompletes) {
  ThreadPool pool(2);
  std::vector<int> hits(2 * 128, 0);
  pool.parallel_for(2, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t job = begin; job < end; ++job) {
      // Both workers are busy here, so each nested call drains inline.
      parallel_for_deterministic(128, [&, job](std::int64_t t) {
        ++hits[static_cast<std::size_t>(job * 128 + t)];
      });
    }
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForDeterministic, PropagatesExceptionsAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_deterministic(
                   64,
                   [](std::int64_t tile) {
                     if (tile == 13) throw std::runtime_error("tile 13");
                   }),
               std::runtime_error);
  // The pool is not poisoned: a follow-up job runs normally.
  std::vector<int> hits(32, 0);
  pool.parallel_for_deterministic(32, [&](std::int64_t tile) {
    ++hits[static_cast<std::size_t>(tile)];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// ------------------------------------------------------------- workspace --

TEST(Im2colWorkspace, GrowsAndNeverShrinks) {
  Im2colWorkspace& ws = Im2colWorkspace::local();
  (void)ws.col(1000);
  const std::size_t grown = ws.col_capacity();
  EXPECT_GE(grown, 1000U);
  (void)ws.col(10);  // smaller request must not shrink the buffer
  EXPECT_EQ(ws.col_capacity(), grown);
  (void)ws.col(2 * grown);
  EXPECT_GE(ws.col_capacity(), 2 * grown);
}

// ------------------------------------------------- blocked batched conv --

TEST(ConvBatchedGemm, BlockSplitBatchMatchesDirectConvolution) {
  // Geometry chosen so the batched im2col workspace cap (16 MiB) splits the
  // batch into more than one sample block: col floats per sample =
  // 16*5*5*64*64 = 1.6M, so only 2 of the 4 samples fit per block.
  Conv2dSpec spec;
  spec.in_channels = 16;
  spec.out_channels = 4;
  spec.kernel = 5;
  spec.stride = 1;
  spec.padding = 2;
  const std::int64_t image = 64;
  const std::int64_t batch = 4;
  const Tensor x = random_tensor(Shape{batch, spec.in_channels, image, image}, 81);
  const Tensor w = random_tensor(spec.weight_shape(), 82, -0.3F, 0.3F);
  const Tensor bias = random_tensor(Shape{spec.out_channels}, 83, -0.1F, 0.1F);

  Tensor y;
  conv2d_forward_into(x, w, bias, spec, y);

  const std::int64_t out = spec.out_size(image);
  ASSERT_EQ(y.shape(), (Shape{batch, spec.out_channels, out, out}));
  Rng probe_rng(84);
  // Direct convolution at 256 random output positions (the full reference
  // would dominate the suite's runtime).
  for (int trial = 0; trial < 256; ++trial) {
    const auto n = static_cast<std::int64_t>(probe_rng.uniform_int(0, batch - 1));
    const auto oc = static_cast<std::int64_t>(probe_rng.uniform_int(0, spec.out_channels - 1));
    const auto oh = static_cast<std::int64_t>(probe_rng.uniform_int(0, out - 1));
    const auto ow = static_cast<std::int64_t>(probe_rng.uniform_int(0, out - 1));
    double acc = bias[oc];
    for (std::int64_t ic = 0; ic < spec.in_channels; ++ic) {
      for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
          const std::int64_t ih = oh * spec.stride - spec.padding + kh;
          const std::int64_t iw = ow * spec.stride - spec.padding + kw;
          if (ih < 0 || ih >= image || iw < 0 || iw >= image) continue;
          acc += static_cast<double>(x.at4(n, ic, ih, iw)) *
                 w[((oc * spec.in_channels + ic) * spec.kernel + kh) * spec.kernel + kw];
        }
      }
    }
    EXPECT_NEAR(y.at4(n, oc, oh, ow), acc, 1e-3)
        << "n=" << n << " oc=" << oc << " oh=" << oh << " ow=" << ow;
  }
}

}  // namespace
}  // namespace usb
