#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "tensor/simd_common.h"
#include "utils/thread_pool.h"

namespace usb {

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

float* AlignedBuffer::ensure(std::size_t count) {
  if (count > capacity_) {
    // Geometric growth so repeated slightly-larger requests settle quickly;
    // aligned_alloc requires the size to be a multiple of the alignment.
    std::size_t bytes = std::max(count, capacity_ * 2) * sizeof(float);
    bytes = (bytes + 63) & ~static_cast<std::size_t>(63);
    std::free(data_);
    // Reset before allocating: if aligned_alloc fails the buffer must not
    // be left pointing at freed memory with a stale nonzero capacity.
    data_ = nullptr;
    capacity_ = 0;
    data_ = static_cast<float*>(std::aligned_alloc(64, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
    capacity_ = bytes / sizeof(float);
  }
  return data_;
}

namespace {

// Blocking constants. The register tile is MR x NR (6x16 floats = 12 ymm
// accumulators in the AVX2 path, leaving registers for the A broadcast and
// the B panel row); A blocks are MC x KC (~96 KiB) and B blocks KC x NC
// (~128 KiB), both L2-resident. MC is a multiple of MR and NC of NR so only
// the final panel of a tile is zero-padded.
constexpr int kMR = 6;
constexpr int kNR = 16;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kNC = 128;

// Below this flop count the (lock + notify) cost of tile dispatch exceeds
// the work; tiles then run inline in grid order — same decomposition, same
// per-element arithmetic, so the cutoff has no numeric effect.
constexpr double kParallelFlopCutoff = 1.0e6;

// The lane-vector type and USB_RESTRICT come from tensor/simd_common.h,
// shared with the elementwise kernel TU (one definition of the
// correctness-critical attributes for every kernel).
using simd::v8sf;

// The micro-kernel computes a full (zero-padded) MR x NR tile over one KC
// block into `out`, holding the 6x16 accumulators in 12 lane vectors. Each
// of the MR*NR accumulator lanes receives its products in ascending p order
// — one accumulator per element, no pairwise splitting — which is what
// makes the blocked result exactly reproducible by a naive ascending-order
// reference for K <= KC. Multiply and add stay separate operations (the TU
// is compiled without FMA contraction), so the portable and AVX2
// instantiations round identically; the lanes merely run 8 independent
// scalar chains side by side.
#define USB_DEFINE_MICRO_KERNEL(NAME, TARGET_ATTR)                                       \
  TARGET_ATTR void NAME(std::int64_t kc, const float* USB_RESTRICT ap,                   \
                        const float* USB_RESTRICT bp, float* USB_RESTRICT out) {         \
    v8sf acc[kMR][2];                                                                    \
    for (int mr = 0; mr < kMR; ++mr) {                                                   \
      acc[mr][0] = v8sf{};                                                               \
      acc[mr][1] = v8sf{};                                                               \
    }                                                                                    \
    for (std::int64_t p = 0; p < kc; ++p) {                                              \
      const float* USB_RESTRICT a_col = ap + p * kMR;                                    \
      const v8sf b0 = *reinterpret_cast<const v8sf*>(bp + p * kNR);                      \
      const v8sf b1 = *reinterpret_cast<const v8sf*>(bp + p * kNR + 8);                  \
      for (int mr = 0; mr < kMR; ++mr) {                                                 \
        const float a = a_col[mr];                                                       \
        const v8sf a_bcast = {a, a, a, a, a, a, a, a};                                   \
        acc[mr][0] += a_bcast * b0;                                                      \
        acc[mr][1] += a_bcast * b1;                                                      \
      }                                                                                  \
    }                                                                                    \
    for (int mr = 0; mr < kMR; ++mr) {                                                   \
      *reinterpret_cast<v8sf*>(out + mr * kNR) = acc[mr][0];                             \
      *reinterpret_cast<v8sf*>(out + mr * kNR + 8) = acc[mr][1];                         \
    }                                                                                    \
  }

USB_DEFINE_MICRO_KERNEL(micro_kernel_portable, )
#if defined(__x86_64__) || defined(__i386__)
USB_DEFINE_MICRO_KERNEL(micro_kernel_avx2, __attribute__((target("avx2"))))
#endif

#undef USB_DEFINE_MICRO_KERNEL

using MicroKernelFn = void (*)(std::int64_t, const float*, const float*, float*);

MicroKernelFn pick_micro_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (simd::cpu_has_avx2()) return micro_kernel_avx2;
#endif
  return micro_kernel_portable;
}

const MicroKernelFn g_micro_kernel = pick_micro_kernel();

/// Packs rows [i0, i0+rows) x columns [p0, p0+kc) of A into MR-row panels:
/// panel-major, then p, then the MR rows (zero-padded past `rows`).
void pack_a(const float* a, std::int64_t lda, bool transposed, std::int64_t i0, std::int64_t rows,
            std::int64_t p0, std::int64_t kc, float* USB_RESTRICT ap) {
  for (std::int64_t panel = 0; panel < rows; panel += kMR) {
    const std::int64_t valid = std::min<std::int64_t>(kMR, rows - panel);
    float* USB_RESTRICT dst = ap + panel * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t r = 0; r < valid; ++r) {
        dst[p * kMR + r] = transposed ? a[(p0 + p) * lda + (i0 + panel + r)]
                                      : a[(i0 + panel + r) * lda + (p0 + p)];
      }
      for (std::int64_t r = valid; r < kMR; ++r) dst[p * kMR + r] = 0.0F;
    }
  }
}

/// Packs rows [p0, p0+kc) x columns [j0, j0+cols) of B into NR-column
/// panels: panel-major, then p, then the NR columns (zero-padded).
void pack_b(const float* b, std::int64_t ldb, bool transposed, std::int64_t p0, std::int64_t kc,
            std::int64_t j0, std::int64_t cols, float* USB_RESTRICT bp) {
  for (std::int64_t panel = 0; panel < cols; panel += kNR) {
    const std::int64_t valid = std::min<std::int64_t>(kNR, cols - panel);
    float* USB_RESTRICT dst = bp + panel * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t j = 0; j < valid; ++j) {
        dst[p * kNR + j] = transposed ? b[(j0 + panel + j) * ldb + (p0 + p)]
                                      : b[(p0 + p) * ldb + (j0 + panel + j)];
      }
      for (std::int64_t j = valid; j < kNR; ++j) dst[p * kNR + j] = 0.0F;
    }
  }
}

struct GemmArgs {
  bool transpose_a = false;
  bool transpose_b = false;
  std::int64_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  std::int64_t lda = 0;
  const float* b = nullptr;
  std::int64_t ldb = 0;
  float* c = nullptr;
  std::int64_t ldc = 0;
  bool accumulate = false;
};

/// Computes the C block rows [i0,i1) x cols [j0,j1): packs the needed A/B
/// panels per KC step into thread-local scratch and sweeps the micro-kernel
/// over the register tiles. Self-contained per tile, so any tile-to-thread
/// assignment yields identical results.
void compute_tile(const GemmArgs& g, std::int64_t i0, std::int64_t i1, std::int64_t j0,
                  std::int64_t j1) {
  thread_local AlignedBuffer a_scratch;
  thread_local AlignedBuffer b_scratch;
  float* const ap = a_scratch.ensure(static_cast<std::size_t>(kMC * kKC));
  float* const bp = b_scratch.ensure(static_cast<std::size_t>(kKC * kNC));
  const std::int64_t rows = i1 - i0;
  const std::int64_t cols = j1 - j0;
  alignas(64) float staging[kMR * kNR];

  for (std::int64_t p0 = 0; p0 < g.k; p0 += kKC) {
    const std::int64_t kc = std::min(kKC, g.k - p0);
    pack_b(g.b, g.ldb, g.transpose_b, p0, kc, j0, cols, bp);
    pack_a(g.a, g.lda, g.transpose_a, i0, rows, p0, kc, ap);
    // First KC block stores (unless accumulating into existing C); later
    // blocks add — the per-element KC-block order is fixed regardless of
    // threading because the whole K loop lives inside one tile.
    const bool store = p0 == 0 && !g.accumulate;
    for (std::int64_t jr = 0; jr < cols; jr += kNR) {
      const float* b_panel = bp + jr * kc;
      const std::int64_t valid_cols = std::min<std::int64_t>(kNR, cols - jr);
      for (std::int64_t ir = 0; ir < rows; ir += kMR) {
        const std::int64_t valid_rows = std::min<std::int64_t>(kMR, rows - ir);
        g_micro_kernel(kc, ap + ir * kc, b_panel, staging);
        float* c_block = g.c + (i0 + ir) * g.ldc + (j0 + jr);
        if (store) {
          for (std::int64_t r = 0; r < valid_rows; ++r) {
            for (std::int64_t j = 0; j < valid_cols; ++j) {
              c_block[r * g.ldc + j] = staging[r * kNR + j];
            }
          }
        } else {
          for (std::int64_t r = 0; r < valid_rows; ++r) {
            for (std::int64_t j = 0; j < valid_cols; ++j) {
              c_block[r * g.ldc + j] += staging[r * kNR + j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

void gemm(bool transpose_a, bool transpose_b, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
          std::int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0F);
    }
    return;
  }
  const GemmArgs args{transpose_a, transpose_b, m, n, k, a, lda, b, ldb, c, ldc, accumulate};
  // Fixed, size-derived tile grid over C — never a function of thread count.
  const std::int64_t m_tiles = (m + kMC - 1) / kMC;
  const std::int64_t n_tiles = (n + kNC - 1) / kNC;
  const std::int64_t total_tiles = m_tiles * n_tiles;
  const auto tile_body = [&args, m, n, n_tiles](std::int64_t tile) {
    const std::int64_t ti = tile / n_tiles;
    const std::int64_t tj = tile % n_tiles;
    compute_tile(args, ti * kMC, std::min(m, (ti + 1) * kMC), tj * kNC,
                 std::min(n, (tj + 1) * kNC));
  };
  if (total_tiles == 1 ||
      2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) <
          kParallelFlopCutoff) {
    for (std::int64_t tile = 0; tile < total_tiles; ++tile) tile_body(tile);
  } else {
    parallel_for_deterministic(total_tiles, tile_body);
  }
}

}  // namespace usb
