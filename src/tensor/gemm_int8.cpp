#include "tensor/gemm_int8.h"

#include <cmath>
#include <cstring>

#include "tensor/task_pool.h"
#include "util/error.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace hs {
namespace {

/// Round to nearest even, matching the AVX2 cvtps path bit-for-bit.
inline int round_nearest(float v) {
    return static_cast<int>(std::lrintf(v));
}

inline std::uint8_t quant_u8(float v, float inv_scale) {
    // Clamp in the float domain: out-of-calibration-range values must
    // saturate at the u8 rails, and a float -> int conversion that
    // overflows int is undefined, not saturating.
    float s = v * inv_scale;
    if (s > 127.0f) s = 127.0f;
    if (s < -128.0f) s = -128.0f;
    return static_cast<std::uint8_t>(round_nearest(s) + kActZeroPoint);
}

#if defined(__AVX2__)

/// acc += Σ_pairs b_u8 · a_s8 over 32 bytes. maddubs takes the unsigned
/// operand first; its int16 intermediate cannot saturate under the
/// |a| ≤ kWeightQMax contract.
inline __m256i mac32(__m256i acc, __m256i vb, __m256i va,
                     __m256i ones) {
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(vb, va), ones));
}

inline std::int32_t hsum(__m256i v) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/// [Σv0, Σv1, Σv2, Σv3] — one shared reduction for four accumulators,
/// amortizing the horizontal-sum cost across a 4-wide output tile.
inline __m128i hsum4(__m256i v0, __m256i v1, __m256i v2, __m256i v3) {
    const __m256i h01 = _mm256_hadd_epi32(v0, v1);
    const __m256i h23 = _mm256_hadd_epi32(v2, v3);
    const __m256i h = _mm256_hadd_epi32(h01, h23);
    return _mm_add_epi32(_mm256_castsi256_si128(h),
                         _mm256_extracti128_si256(h, 1));
}

#if defined(__AVX512BW__)

/// acc += Σ_pairs b_u8 · a_s8 over 64 bytes — the 512-bit twin of mac32,
/// exact under the same |a| ≤ kWeightQMax contract.
inline __m512i mac64(__m512i acc, __m512i vb, __m512i va, __m512i ones) {
    return _mm512_add_epi32(
        acc, _mm512_madd_epi16(_mm512_maddubs_epi16(vb, va), ones));
}

/// Fold a 512-bit accumulator to 256 bits (sum of its halves) so the
/// shared hsum/hsum4 reductions serve both vector widths.
inline __m256i fold512(__m512i v) {
    return _mm256_add_epi32(_mm512_castsi512_si256(v),
                            _mm512_extracti64x4_epi64(v, 1));
}

/// Byte mask selecting the first `rem` lanes (0 < rem < 64). Masked
/// loads zero the rest, and 0 · anything contributes nothing, so the
/// k-tail rides the vector loop instead of a scalar one.
inline __mmask64 tail_mask(int rem) {
    return ~std::uint64_t{0} >> (64 - rem);
}

/// Raw (zero-point-uncorrected) dot of k bytes: Σ a_s8[p] · b_u8[p].
/// Remainder path for rows/columns outside the 2×4 tiling.
inline std::int32_t dot_s8u8(const std::int8_t* a, const std::uint8_t* b,
                             int k) {
    const __m512i ones = _mm512_set1_epi16(1);
    __m512i acc = _mm512_setzero_si512();
    int p = 0;
    for (; p + 64 <= k; p += 64)
        acc = mac64(acc, _mm512_loadu_si512(b + p),
                    _mm512_loadu_si512(a + p), ones);
    if (p < k) {
        const __mmask64 mk = tail_mask(k - p);
        acc = mac64(acc, _mm512_maskz_loadu_epi8(mk, b + p),
                    _mm512_maskz_loadu_epi8(mk, a + p), ones);
    }
    return hsum(fold512(acc));
}

#else // __AVX2__ without __AVX512BW__

/// Raw (zero-point-uncorrected) dot of k bytes: Σ a_s8[p] · b_u8[p].
/// Remainder path for rows/columns outside the 2×4 tiling.
inline std::int32_t dot_s8u8(const std::int8_t* a, const std::uint8_t* b,
                             int k) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    int p = 0;
    for (; p + 64 <= k; p += 64) {
        acc0 = mac32(acc0,
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(b + p)),
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(a + p)),
                     ones);
        acc1 = mac32(acc1,
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(b + p + 32)),
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(a + p + 32)),
                     ones);
    }
    for (; p + 32 <= k; p += 32) {
        acc0 = mac32(acc0,
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(b + p)),
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(a + p)),
                     ones);
    }
    std::int32_t sum = hsum(_mm256_add_epi32(acc0, acc1));
    for (; p < k; ++p)
        sum += static_cast<std::int32_t>(a[p]) *
               static_cast<std::int32_t>(b[p]);
    return sum;
}

#endif // __AVX512BW__

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)

/// Raw dot of k bytes through vpdpbusd: products accumulate straight
/// into int32 lanes, so the full s8 weight range is exact.
inline std::int32_t dot_vnni(const std::int8_t* a, const std::uint8_t* b,
                             int k) {
    __m512i acc = _mm512_setzero_si512();
    int p = 0;
    for (; p + 64 <= k; p += 64)
        acc = _mm512_dpbusd_epi32(acc, _mm512_loadu_si512(b + p),
                                  _mm512_loadu_si512(a + p));
    if (p < k) {
        const __mmask64 mk = tail_mask(k - p);
        acc = _mm512_dpbusd_epi32(acc, _mm512_maskz_loadu_epi8(mk, b + p),
                                  _mm512_maskz_loadu_epi8(mk, a + p));
    }
    return hsum(fold512(acc));
}

#endif // __AVX512VNNI__ && __AVX512BW__

#endif // __AVX2__

/// 128 · Σ a_row — the zero-point correction of one output row. Runs
/// once per output row per GEMM call, over the whole reduction length,
/// so it is vectorized: bias s8 to u8 (xor 0x80), horizontal-sum with
/// sad_epu8, then subtract the bias back out.
inline std::int32_t row_correction(const std::int8_t* a, int k) {
    std::int32_t row_sum = 0;
    int p = 0;
#if defined(__AVX2__)
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = _mm256_setzero_si256();  // 4 × epi64 partial sums
    for (; p + 32 <= k; p += 32) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
            bias);
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    row_sum = static_cast<std::int32_t>(lanes[0] + lanes[1] + lanes[2] +
                                        lanes[3]) -
              kActZeroPoint * p;
#endif
    for (; p < k; ++p)
        row_sum += static_cast<std::int32_t>(a[p]);
    return kActZeroPoint * row_sum;
}

} // namespace

void gemm_s8u8_bt(int m, int n, int k, std::span<const std::int8_t> a,
                  std::span<const std::uint8_t> b,
                  std::span<std::int32_t> c) {
    require(static_cast<std::int64_t>(a.size()) >=
                    static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >=
                    static_cast<std::int64_t>(n) * k &&
                static_cast<std::int64_t>(c.size()) >=
                    static_cast<std::int64_t>(m) * n,
            "gemm_s8u8_bt: span sizes too small for the given dimensions");

#if defined(__AVX2__)
#if !defined(__AVX512BW__)
    const int kAligned = k & ~(kQKAlign - 1);
#endif
    const int m2 = m & ~1;  // rows covered by 2-high tiles
    const int n4 = n & ~3;  // cols covered by 4-wide tiles

#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i0 = 0; i0 < m2; i0 += 2) {
        const std::int8_t* __restrict a0 =
            a.data() + static_cast<std::int64_t>(i0) * k;
        const std::int8_t* __restrict a1 = a0 + k;
        std::int32_t* __restrict c0 =
            c.data() + static_cast<std::int64_t>(i0) * n;
        std::int32_t* __restrict c1 = c0 + n;
        const std::int32_t corr0 = row_correction(a0, k);
        const std::int32_t corr1 = row_correction(a1, k);
#if !defined(__AVX512BW__)
        const __m256i ones = _mm256_set1_epi16(1);
#endif

        for (int j0 = 0; j0 < n4; j0 += 4) {
            const std::uint8_t* __restrict b0 =
                b.data() + static_cast<std::int64_t>(j0) * k;
            const std::uint8_t* __restrict b1 = b0 + k;
            const std::uint8_t* __restrict b2 = b1 + k;
            const std::uint8_t* __restrict b3 = b2 + k;
#if defined(__AVX512BW__)
            // 2×4 output tile, 512-bit: each 64-byte step loads 2 weight
            // rows + 4 patch rows for 512 MACs; the k-tail is a masked
            // load, so no scalar epilogue.
            const __m512i wones = _mm512_set1_epi16(1);
            __m512i t00 = _mm512_setzero_si512();
            __m512i t01 = _mm512_setzero_si512();
            __m512i t02 = _mm512_setzero_si512();
            __m512i t03 = _mm512_setzero_si512();
            __m512i t10 = _mm512_setzero_si512();
            __m512i t11 = _mm512_setzero_si512();
            __m512i t12 = _mm512_setzero_si512();
            __m512i t13 = _mm512_setzero_si512();
            const int k64 = k & ~63;
            int p = 0;
            for (; p < k64; p += 64) {
                const __m512i va0 = _mm512_loadu_si512(a0 + p);
                const __m512i va1 = _mm512_loadu_si512(a1 + p);
                const __m512i vb0 = _mm512_loadu_si512(b0 + p);
                const __m512i vb1 = _mm512_loadu_si512(b1 + p);
                const __m512i vb2 = _mm512_loadu_si512(b2 + p);
                const __m512i vb3 = _mm512_loadu_si512(b3 + p);
                t00 = mac64(t00, vb0, va0, wones);
                t01 = mac64(t01, vb1, va0, wones);
                t02 = mac64(t02, vb2, va0, wones);
                t03 = mac64(t03, vb3, va0, wones);
                t10 = mac64(t10, vb0, va1, wones);
                t11 = mac64(t11, vb1, va1, wones);
                t12 = mac64(t12, vb2, va1, wones);
                t13 = mac64(t13, vb3, va1, wones);
            }
            if (p < k) {
                const __mmask64 mk = tail_mask(k - p);
                const __m512i va0 = _mm512_maskz_loadu_epi8(mk, a0 + p);
                const __m512i va1 = _mm512_maskz_loadu_epi8(mk, a1 + p);
                const __m512i vb0 = _mm512_maskz_loadu_epi8(mk, b0 + p);
                const __m512i vb1 = _mm512_maskz_loadu_epi8(mk, b1 + p);
                const __m512i vb2 = _mm512_maskz_loadu_epi8(mk, b2 + p);
                const __m512i vb3 = _mm512_maskz_loadu_epi8(mk, b3 + p);
                t00 = mac64(t00, vb0, va0, wones);
                t01 = mac64(t01, vb1, va0, wones);
                t02 = mac64(t02, vb2, va0, wones);
                t03 = mac64(t03, vb3, va0, wones);
                t10 = mac64(t10, vb0, va1, wones);
                t11 = mac64(t11, vb1, va1, wones);
                t12 = mac64(t12, vb2, va1, wones);
                t13 = mac64(t13, vb3, va1, wones);
            }
            alignas(16) std::int32_t s0[4];
            alignas(16) std::int32_t s1[4];
            _mm_store_si128(reinterpret_cast<__m128i*>(s0),
                            hsum4(fold512(t00), fold512(t01), fold512(t02),
                                  fold512(t03)));
            _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                            hsum4(fold512(t10), fold512(t11), fold512(t12),
                                  fold512(t13)));
            for (int jj = 0; jj < 4; ++jj) {
                c0[j0 + jj] = s0[jj] - corr0;
                c1[j0 + jj] = s1[jj] - corr1;
            }
#else
            // 2×4 output tile: 8 vector accumulators, each 32-byte step
            // loads 2 weight rows + 4 patch rows for 256 MACs.
            __m256i t00 = _mm256_setzero_si256();
            __m256i t01 = _mm256_setzero_si256();
            __m256i t02 = _mm256_setzero_si256();
            __m256i t03 = _mm256_setzero_si256();
            __m256i t10 = _mm256_setzero_si256();
            __m256i t11 = _mm256_setzero_si256();
            __m256i t12 = _mm256_setzero_si256();
            __m256i t13 = _mm256_setzero_si256();
            for (int p = 0; p < kAligned; p += 32) {
                const __m256i va0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(a0 + p));
                const __m256i va1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(a1 + p));
                const __m256i vb0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b0 + p));
                const __m256i vb1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b1 + p));
                const __m256i vb2 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b2 + p));
                const __m256i vb3 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(b3 + p));
                t00 = mac32(t00, vb0, va0, ones);
                t01 = mac32(t01, vb1, va0, ones);
                t02 = mac32(t02, vb2, va0, ones);
                t03 = mac32(t03, vb3, va0, ones);
                t10 = mac32(t10, vb0, va1, ones);
                t11 = mac32(t11, vb1, va1, ones);
                t12 = mac32(t12, vb2, va1, ones);
                t13 = mac32(t13, vb3, va1, ones);
            }
            alignas(16) std::int32_t s0[4];
            alignas(16) std::int32_t s1[4];
            _mm_store_si128(reinterpret_cast<__m128i*>(s0),
                            hsum4(t00, t01, t02, t03));
            _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                            hsum4(t10, t11, t12, t13));
            const std::uint8_t* const brows[4] = {b0, b1, b2, b3};
            for (int jj = 0; jj < 4; ++jj) {
                std::int32_t e0 = 0;
                std::int32_t e1 = 0;
                for (int p = kAligned; p < k; ++p) {
                    const std::int32_t bv = brows[jj][p];
                    e0 += static_cast<std::int32_t>(a0[p]) * bv;
                    e1 += static_cast<std::int32_t>(a1[p]) * bv;
                }
                c0[j0 + jj] = s0[jj] + e0 - corr0;
                c1[j0 + jj] = s1[jj] + e1 - corr1;
            }
#endif // __AVX512BW__
        }
        for (int j = n4; j < n; ++j) {
            const std::uint8_t* brow =
                b.data() + static_cast<std::int64_t>(j) * k;
            c0[j] = dot_s8u8(a0, brow, k) - corr0;
            c1[j] = dot_s8u8(a1, brow, k) - corr1;
        }
    }
    for (int i = m2; i < m; ++i) {
        const std::int8_t* arow =
            a.data() + static_cast<std::int64_t>(i) * k;
        std::int32_t* crow = c.data() + static_cast<std::int64_t>(i) * n;
        const std::int32_t corr = row_correction(arow, k);
        for (int j = 0; j < n; ++j)
            crow[j] = dot_s8u8(arow,
                               b.data() + static_cast<std::int64_t>(j) * k,
                               k) -
                      corr;
    }
#else
#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i = 0; i < m; ++i) {
        const std::int8_t* __restrict arow =
            a.data() + static_cast<std::int64_t>(i) * k;
        std::int32_t* __restrict crow =
            c.data() + static_cast<std::int64_t>(i) * n;
        const std::int32_t corr = row_correction(arow, k);
        for (int j = 0; j < n; ++j) {
            const std::uint8_t* __restrict brow =
                b.data() + static_cast<std::int64_t>(j) * k;
            std::int32_t acc = 0;
            for (int p = 0; p < k; ++p)
                acc += static_cast<std::int32_t>(arow[p]) *
                       static_cast<std::int32_t>(brow[p]);
            crow[j] = acc - corr;
        }
    }
#endif
}

void gemm_s8u8_bt_ref(int m, int n, int k, std::span<const std::int8_t> a,
                      std::span<const std::uint8_t> b,
                      std::span<std::int32_t> c) {
    require(static_cast<std::int64_t>(a.size()) >=
                    static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >=
                    static_cast<std::int64_t>(n) * k &&
                static_cast<std::int64_t>(c.size()) >=
                    static_cast<std::int64_t>(m) * n,
            "gemm_s8u8_bt_ref: span sizes too small for the given "
            "dimensions");
    for (int i = 0; i < m; ++i) {
        const std::int8_t* arow =
            a.data() + static_cast<std::int64_t>(i) * k;
        std::int32_t* crow = c.data() + static_cast<std::int64_t>(i) * n;
        for (int j = 0; j < n; ++j) {
            const std::uint8_t* brow =
                b.data() + static_cast<std::int64_t>(j) * k;
            // int64 accumulator: dodges the gcc-12 AVX-512 usdot
            // autovectorizer miscompile (see tests/gemm_int8_test.cpp);
            // the true value fits int32 for every supported shape.
            std::int64_t acc = 0;
            for (int p = 0; p < k; ++p)
                acc += static_cast<std::int64_t>(arow[p]) *
                       (static_cast<std::int64_t>(brow[p]) - kActZeroPoint);
            crow[j] = static_cast<std::int32_t>(acc);
        }
    }
}

bool cpu_supports_vnni() {
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
    return __builtin_cpu_supports("avx512vnni") > 0;
#else
    return false;
#endif
}

void gemm_s8u8_bt_vnni(int m, int n, int k, std::span<const std::int8_t> a,
                       std::span<const std::uint8_t> b,
                       std::span<std::int32_t> c) {
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
    if (!cpu_supports_vnni()) {
        gemm_s8u8_bt_ref(m, n, k, a, b, c);
        return;
    }
    require(static_cast<std::int64_t>(a.size()) >=
                    static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >=
                    static_cast<std::int64_t>(n) * k &&
                static_cast<std::int64_t>(c.size()) >=
                    static_cast<std::int64_t>(m) * n,
            "gemm_s8u8_bt_vnni: span sizes too small for the given "
            "dimensions");
    const int m2 = m & ~1;
    const int n4 = n & ~3;
    for (int i0 = 0; i0 < m2; i0 += 2) {
        const std::int8_t* __restrict a0 =
            a.data() + static_cast<std::int64_t>(i0) * k;
        const std::int8_t* __restrict a1 = a0 + k;
        std::int32_t* __restrict c0 =
            c.data() + static_cast<std::int64_t>(i0) * n;
        std::int32_t* __restrict c1 = c0 + n;
        const std::int32_t corr0 = row_correction(a0, k);
        const std::int32_t corr1 = row_correction(a1, k);
        for (int j0 = 0; j0 < n4; j0 += 4) {
            const std::uint8_t* __restrict b0 =
                b.data() + static_cast<std::int64_t>(j0) * k;
            const std::uint8_t* __restrict b1 = b0 + k;
            const std::uint8_t* __restrict b2 = b1 + k;
            const std::uint8_t* __restrict b3 = b2 + k;
            // 2×4 tile, one vpdpbusd per operand pair per 64-byte step —
            // half the µops of the maddubs+madd+add chain, and int32
            // accumulation means no reduced-range weight contract.
            __m512i t00 = _mm512_setzero_si512();
            __m512i t01 = _mm512_setzero_si512();
            __m512i t02 = _mm512_setzero_si512();
            __m512i t03 = _mm512_setzero_si512();
            __m512i t10 = _mm512_setzero_si512();
            __m512i t11 = _mm512_setzero_si512();
            __m512i t12 = _mm512_setzero_si512();
            __m512i t13 = _mm512_setzero_si512();
            const int k64 = k & ~63;
            int p = 0;
            for (; p < k64; p += 64) {
                const __m512i va0 = _mm512_loadu_si512(a0 + p);
                const __m512i va1 = _mm512_loadu_si512(a1 + p);
                const __m512i vb0 = _mm512_loadu_si512(b0 + p);
                const __m512i vb1 = _mm512_loadu_si512(b1 + p);
                const __m512i vb2 = _mm512_loadu_si512(b2 + p);
                const __m512i vb3 = _mm512_loadu_si512(b3 + p);
                t00 = _mm512_dpbusd_epi32(t00, vb0, va0);
                t01 = _mm512_dpbusd_epi32(t01, vb1, va0);
                t02 = _mm512_dpbusd_epi32(t02, vb2, va0);
                t03 = _mm512_dpbusd_epi32(t03, vb3, va0);
                t10 = _mm512_dpbusd_epi32(t10, vb0, va1);
                t11 = _mm512_dpbusd_epi32(t11, vb1, va1);
                t12 = _mm512_dpbusd_epi32(t12, vb2, va1);
                t13 = _mm512_dpbusd_epi32(t13, vb3, va1);
            }
            if (p < k) {
                const __mmask64 mk = tail_mask(k - p);
                const __m512i va0 = _mm512_maskz_loadu_epi8(mk, a0 + p);
                const __m512i va1 = _mm512_maskz_loadu_epi8(mk, a1 + p);
                const __m512i vb0 = _mm512_maskz_loadu_epi8(mk, b0 + p);
                const __m512i vb1 = _mm512_maskz_loadu_epi8(mk, b1 + p);
                const __m512i vb2 = _mm512_maskz_loadu_epi8(mk, b2 + p);
                const __m512i vb3 = _mm512_maskz_loadu_epi8(mk, b3 + p);
                t00 = _mm512_dpbusd_epi32(t00, vb0, va0);
                t01 = _mm512_dpbusd_epi32(t01, vb1, va0);
                t02 = _mm512_dpbusd_epi32(t02, vb2, va0);
                t03 = _mm512_dpbusd_epi32(t03, vb3, va0);
                t10 = _mm512_dpbusd_epi32(t10, vb0, va1);
                t11 = _mm512_dpbusd_epi32(t11, vb1, va1);
                t12 = _mm512_dpbusd_epi32(t12, vb2, va1);
                t13 = _mm512_dpbusd_epi32(t13, vb3, va1);
            }
            alignas(16) std::int32_t s0[4];
            alignas(16) std::int32_t s1[4];
            _mm_store_si128(reinterpret_cast<__m128i*>(s0),
                            hsum4(fold512(t00), fold512(t01), fold512(t02),
                                  fold512(t03)));
            _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                            hsum4(fold512(t10), fold512(t11), fold512(t12),
                                  fold512(t13)));
            for (int jj = 0; jj < 4; ++jj) {
                c0[j0 + jj] = s0[jj] - corr0;
                c1[j0 + jj] = s1[jj] - corr1;
            }
        }
        for (int j = n4; j < n; ++j) {
            const std::uint8_t* brow =
                b.data() + static_cast<std::int64_t>(j) * k;
            c0[j] = dot_vnni(a0, brow, k) - corr0;
            c1[j] = dot_vnni(a1, brow, k) - corr1;
        }
    }
    for (int i = m2; i < m; ++i) {
        const std::int8_t* arow =
            a.data() + static_cast<std::int64_t>(i) * k;
        std::int32_t* crow = c.data() + static_cast<std::int64_t>(i) * n;
        const std::int32_t corr = row_correction(arow, k);
        for (int j = 0; j < n; ++j)
            crow[j] = dot_vnni(arow,
                               b.data() + static_cast<std::int64_t>(j) * k,
                               k) -
                      corr;
    }
#else
    gemm_s8u8_bt_ref(m, n, k, a, b, c);
#endif
}

bool normalize_tactic(QGemmTactic& t) {
    bool changed = false;
    if (t.ways != 1 && t.ways != 2 && t.ways != 4) {
        t.ways = 1;
        changed = true;
    }
    if (t.wbits != 7 && t.wbits != 8) {
        // Unknown width: assume the widest, which forces a full-range
        // kernel below.
        t.wbits = 8;
        changed = true;
    }
    const auto raw = static_cast<std::uint8_t>(t.kernel);
    const bool unknown = raw > static_cast<std::uint8_t>(QKernel::kVnni);
    const bool unavailable =
        t.kernel == QKernel::kVnni && !cpu_supports_vnni();
    const bool contract_violation =
        !unknown && t.wbits == 8 &&
        kernel_weight_qmax(t.kernel) < kWeightQMaxFull;
    if (unknown || unavailable || contract_violation) {
        t.kernel = t.wbits == 8 ? QKernel::kScalarRef : QKernel::kAuto;
        changed = true;
    }
    return changed;
}

namespace {

using QKernelFn = void (*)(int, int, int, std::span<const std::int8_t>,
                           std::span<const std::uint8_t>,
                           std::span<std::int32_t>);

QKernelFn resolve_kernel(QKernel k) {
    switch (k) {
    case QKernel::kScalarRef: return gemm_s8u8_bt_ref;
    case QKernel::kVnni: return gemm_s8u8_bt_vnni;
    case QKernel::kAuto:
    case QKernel::kMaddubs: break;
    }
    return gemm_s8u8_bt;
}

/// Caller-stack context of one tiled qgemm: partition `part` of `ways`
/// covers A rows [m·part/ways, m·(part+1)/ways) and the matching C rows;
/// every partition reads all of B. Disjoint C regions — no synchronization
/// beyond the pool's own join.
struct QGemmTileCtx {
    QKernelFn fn;
    int m, n, k, ways;
    const std::int8_t* a;
    const std::uint8_t* b;
    std::int32_t* c;
};

void qgemm_tile(void* vctx, int part) {
    const auto* ctx = static_cast<const QGemmTileCtx*>(vctx);
    const int lo = static_cast<int>(static_cast<std::int64_t>(ctx->m) *
                                    part / ctx->ways);
    const int hi = static_cast<int>(static_cast<std::int64_t>(ctx->m) *
                                    (part + 1) / ctx->ways);
    if (lo >= hi) return;
    ctx->fn(hi - lo, ctx->n, ctx->k,
            {ctx->a + static_cast<std::int64_t>(lo) * ctx->k,
             static_cast<std::size_t>(hi - lo) *
                 static_cast<std::size_t>(ctx->k)},
            {ctx->b, static_cast<std::size_t>(ctx->n) *
                         static_cast<std::size_t>(ctx->k)},
            {ctx->c + static_cast<std::int64_t>(lo) * ctx->n,
             static_cast<std::size_t>(hi - lo) *
                 static_cast<std::size_t>(ctx->n)});
}

} // namespace

void qgemm(const QGemmTactic& t, int m, int n, int k,
           std::span<const std::int8_t> a, std::span<const std::uint8_t> b,
           std::span<std::int32_t> c) {
    QGemmTactic tac = t;
    normalize_tactic(tac);
    QKernelFn fn = resolve_kernel(tac.kernel);
    int ways = tac.ways;
    while (ways > 1 && ways > m) ways /= 2;
    if (ways <= 1) {
        fn(m, n, k, a, b, c);
        return;
    }
    require(static_cast<std::int64_t>(a.size()) >=
                    static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >=
                    static_cast<std::int64_t>(n) * k &&
                static_cast<std::int64_t>(c.size()) >=
                    static_cast<std::int64_t>(m) * n,
            "qgemm: span sizes too small for the given dimensions");
    QGemmTileCtx ctx{fn, m, n, k, ways, a.data(), b.data(), c.data()};
    TaskPool::instance().run(ways, qgemm_tile, &ctx);
}

void quantize_s8(std::span<const float> x, float inv_scale, int qmax,
                 std::span<std::int8_t> q) {
    require(q.size() >= x.size(), "quantize_s8: output span too small");
    const auto bound = static_cast<float>(qmax);
    for (std::size_t i = 0; i < x.size(); ++i) {
        float s = x[i] * inv_scale;  // float-domain clamp, like quant_u8
        if (s > bound) s = bound;
        if (s < -bound) s = -bound;
        q[i] = static_cast<std::int8_t>(round_nearest(s));
    }
}

void quantize_u8(std::span<const float> x, float inv_scale,
                 std::span<std::uint8_t> q) {
    require(q.size() >= x.size(), "quantize_u8: output span too small");
    const std::size_t n = x.size();
    std::size_t i = 0;
#if defined(__AVX2__)
    // 32 floats -> 32 bytes per iteration: scale, clamp, convert (round
    // to nearest even, matching std::lrintf), shift by the zero point,
    // and pack with a lane-repair permute.
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vlo = _mm256_set1_ps(-128.0f);
    const __m256 vhi = _mm256_set1_ps(127.0f);
    const __m256i vzp =
        _mm256_set1_epi16(static_cast<short>(kActZeroPoint));
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; i + 32 <= n; i += 32) {
        const float* src = x.data() + i;
        const __m256 f0 = _mm256_min_ps(
            _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(src), vinv), vlo),
            vhi);
        const __m256 f1 = _mm256_min_ps(
            _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(src + 8), vinv),
                          vlo),
            vhi);
        const __m256 f2 = _mm256_min_ps(
            _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(src + 16), vinv),
                          vlo),
            vhi);
        const __m256 f3 = _mm256_min_ps(
            _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(src + 24), vinv),
                          vlo),
            vhi);
        const __m256i p01 = _mm256_add_epi16(
            _mm256_packs_epi32(_mm256_cvtps_epi32(f0),
                               _mm256_cvtps_epi32(f1)),
            vzp);
        const __m256i p23 = _mm256_add_epi16(
            _mm256_packs_epi32(_mm256_cvtps_epi32(f2),
                               _mm256_cvtps_epi32(f3)),
            vzp);
        const __m256i packed = _mm256_permutevar8x32_epi32(
            _mm256_packus_epi16(p01, p23), order);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q.data() + i),
                            packed);
    }
#endif
    for (; i < n; ++i) q[i] = quant_u8(x[i], inv_scale);
}

void im2row_u8(const ConvGeom& g, std::span<const std::uint8_t> qimage,
               std::int64_t row_stride, std::span<std::uint8_t> rows) {
    require(g.kernel > 0 && g.stride > 0 && g.pad >= 0, "bad conv geometry");
    const int oh = g.out_h();
    const int ow = g.out_w();
    require(oh > 0 && ow > 0, "conv output would be empty");
    require(static_cast<std::int64_t>(qimage.size()) >=
                static_cast<std::int64_t>(g.channels) * g.height * g.width,
            "im2row_u8: image span too small");
    require(row_stride >= g.col_rows(), "im2row_u8: row_stride < C*k*k");
    require(static_cast<std::int64_t>(rows.size()) >=
                row_stride * g.col_cols(),
            "im2row_u8: rows span too small");

    // Zero-point fill first: padding samples and each row's alignment
    // tail then need no per-element branches in the gather below.
    std::memset(rows.data(), kActZeroPoint,
                static_cast<std::size_t>(row_stride * g.col_cols()));

    const int kk = g.kernel;
    const std::int64_t ckk = g.col_rows();
    // Interior ox range: every kernel column lands inside the image
    // (ox·stride − pad ≥ 0 and + kk ≤ width). Hoisting the clip test out
    // of the per-patch loop leaves the hot loop a bare strided copy.
    const int ox_lo = std::min(
        ow, (g.pad + g.stride - 1) / g.stride);
    const int ox_hi = std::max(
        ox_lo, std::min(ow, (g.width - kk + g.pad) / g.stride + 1));
    // When the patch row has alignment slack, kernel-row copies may
    // round up to one 4-byte move: the clobbered bytes are rewritten by
    // the next (c, ky) pass, or land in the don't-care tail (the
    // matching weight pad is zero). That repair only happens if every
    // later pass actually runs, so the spill path is reserved for oy
    // rows whose whole kernel footprint is inside the image; border rows
    // (and layouts with no tail slack) use exact copies.
    const bool spill_ok =
        kk <= 3 && row_stride >= ckk + (4 - kk);
    // The wide copy also READS 4 bytes; keep it where the read stays
    // inside the current image row, finishing with exact copies.
    const int ox_hi4 = std::max(
        ox_lo, std::min(ox_hi, (g.width - 4 + g.pad) / g.stride + 1));

    for (int oy = 0; oy < oh; ++oy) {
        const int iy0 = oy * g.stride - g.pad;
        const bool spill =
            spill_ok && iy0 >= 0 && iy0 + kk <= g.height;
        std::uint8_t* __restrict patch0 =
            rows.data() + static_cast<std::int64_t>(oy) * ow * row_stride;
        for (int c = 0; c < g.channels; ++c) {
            const std::uint8_t* __restrict img =
                qimage.data() +
                static_cast<std::int64_t>(c) * g.height * g.width;
            for (int ky = 0; ky < kk; ++ky) {
                const int iy = oy * g.stride + ky - g.pad;
                if (iy < 0 || iy >= g.height) continue;  // stays zp
                const std::uint8_t* __restrict srow =
                    img + static_cast<std::int64_t>(iy) * g.width;
                const std::int64_t off =
                    (static_cast<std::int64_t>(c) * kk + ky) * kk;
                // Left border: clip the kernel row to the image.
                for (int ox = 0; ox < ox_lo; ++ox) {
                    const int x0 = ox * g.stride - g.pad;
                    const int lo = x0 < 0 ? -x0 : 0;
                    const int hi = x0 + kk > g.width ? g.width - x0 : kk;
                    if (lo < hi)
                        std::memcpy(patch0 + ox * row_stride + off + lo,
                                    srow + x0 + lo,
                                    static_cast<std::size_t>(hi - lo));
                }
                std::uint8_t* dst = patch0 + ox_lo * row_stride + off;
                const std::uint8_t* src = srow + ox_lo * g.stride - g.pad;
                if (spill) {
                    int ox = ox_lo;
                    for (; ox < ox_hi4;
                         ++ox, dst += row_stride, src += g.stride)
                        std::memcpy(dst, src, 4);
                    for (; ox < ox_hi;
                         ++ox, dst += row_stride, src += g.stride)
                        std::memcpy(dst, src, static_cast<std::size_t>(kk));
                } else if (kk == 3) {
                    for (int ox = ox_lo; ox < ox_hi;
                         ++ox, dst += row_stride, src += g.stride)
                        std::memcpy(dst, src, 3);
                } else {
                    for (int ox = ox_lo; ox < ox_hi;
                         ++ox, dst += row_stride, src += g.stride)
                        std::memcpy(dst, src, static_cast<std::size_t>(kk));
                }
                // Right border.
                for (int ox = ox_hi; ox < ow; ++ox) {
                    const int x0 = ox * g.stride - g.pad;
                    const int lo = x0 < 0 ? -x0 : 0;
                    const int hi = x0 + kk > g.width ? g.width - x0 : kk;
                    if (lo < hi)
                        std::memcpy(patch0 + ox * row_stride + off + lo,
                                    srow + x0 + lo,
                                    static_cast<std::size_t>(hi - lo));
                }
            }
        }
    }
}

} // namespace hs
