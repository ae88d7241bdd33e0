// gemm_bt: C = alpha·A·Bᵀ + beta·C, the kernel behind Conv2d's weight
// gradient and every Linear layer. Its per-element rounding is a contract
// (see gemm.h), so this file is built with -ffp-contract=off
// (src/tensor/CMakeLists.txt): each rounded product and add below stays
// two operations, and the only fused steps are the ones spelled out as
// fma.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "tensor/gemm.h"

#if defined(__FMA__)
#include <immintrin.h>
#endif

namespace hs {
namespace {

constexpr int kLanes = 8;        // columns per accumulator vector
constexpr int kTileN = 64;       // columns per packed tile: 8 vectors
constexpr int kRoundedBlock = 8; // products are added unfused in whole blocks of 8

/// kLanes floats, one per output column. Each operation on it is one SIMD
/// instruction across columns; the loop over k stays a plain sequence of
/// those operations, so every column keeps its own strict order.
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

/// The kLanes floats at p (any alignment).
void load(Lanes& v, const float* p) { std::memcpy(&v, p, sizeof v); }

/// acc = fma(a, b, acc) in every lane.
void fma_into(Lanes& acc, float a, const Lanes& b) {
#if defined(__FMA__)
    acc = _mm256_fmadd_ps(_mm256_set1_ps(a), b, acc);
#else
    for (int l = 0; l < kLanes; ++l) acc[l] = __builtin_fmaf(a, b[l], acc[l]);
#endif
}

/// All m rows of C's columns [j0, j0 + nb) against those columns of B,
/// packed transposed into a k×kStride tile (row p holds B(j0 + col, p),
/// zero past nb). The stride is nb rounded up to whole vectors, so a
/// narrow call packs and sweeps only what it needs.
template <int V>
void tile_rows(int m, int n, int k, int j0, int nb, float alpha, const float* a,
               const float* b, float beta, float* c, std::vector<float>& tile) {
    constexpr int kStride = V * kLanes;
    if (tile.size() < static_cast<std::size_t>(k) * kStride)
        tile.resize(static_cast<std::size_t>(k) * kStride);
    float* __restrict packed = tile.data();
    for (int p = 0; p < k; ++p) {
        float* trow = packed + static_cast<std::int64_t>(p) * kStride;
        for (int col = 0; col < kStride; ++col)
            trow[col] = col < nb ? b[static_cast<std::int64_t>(j0 + col) * k + p] : 0.0f;
    }

    const int body = k / kRoundedBlock * kRoundedBlock;
#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i = 0; i < m; ++i) {
        const float* __restrict arow = a + static_cast<std::int64_t>(i) * k;
        Lanes acc[V] = {};
        // Body: each product rounded, then added in order.
        for (int p = 0; p < body; ++p) {
            const float* trow = packed + static_cast<std::int64_t>(p) * kStride;
            for (int v = 0; v < V; ++v) {
                Lanes bv;
                load(bv, trow + v * kLanes);
                const Lanes prod = arow[p] * bv;
                acc[v] = acc[v] + prod;
            }
        }
        // Tail (k mod 8 terms, or all of them when k < 8): fused.
        for (int p = body; p < k; ++p) {
            const float* trow = packed + static_cast<std::int64_t>(p) * kStride;
            for (int v = 0; v < V; ++v) {
                Lanes bv;
                load(bv, trow + v * kLanes);
                fma_into(acc[v], arow[p], bv);
            }
        }
        float sums[kStride];
        std::memcpy(sums, acc, sizeof sums);
        float* __restrict crow = c + static_cast<std::int64_t>(i) * n + j0;
        for (int l = 0; l < nb; ++l) {
            const float base = beta == 0.0f ? 0.0f : beta == 1.0f ? crow[l] : beta * crow[l];
            crow[l] = __builtin_fmaf(alpha, sums[l], base);
        }
    }
}

constexpr decltype(&tile_rows<1>) kTileRows[] = {
    tile_rows<1>, tile_rows<2>, tile_rows<3>, tile_rows<4>,
    tile_rows<5>, tile_rows<6>, tile_rows<7>, tile_rows<8>};
static_assert(std::size(kTileRows) * kLanes == kTileN);

} // namespace

void gemm_bt(int m, int n, int k, float alpha, std::span<const float> a,
             std::span<const float> b, float beta, std::span<float> c) {
    require(static_cast<std::int64_t>(a.size()) >= static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >= static_cast<std::int64_t>(n) * k &&
                static_cast<std::int64_t>(c.size()) >= static_cast<std::int64_t>(m) * n,
            "gemm_bt: span sizes too small for the given dimensions");
    // Grown, never shrunk: search lanes and serving workers call this at
    // the same time, each packing into its own thread's tile.
    thread_local std::vector<float> tile;
    for (int j0 = 0; j0 < n; j0 += kTileN) {
        const int nb = std::min(kTileN, n - j0);
        kTileRows[(nb + kLanes - 1) / kLanes - 1](m, n, k, j0, nb, alpha, a.data(), b.data(),
                                                  beta, c.data(), tile);
    }
}

} // namespace hs
