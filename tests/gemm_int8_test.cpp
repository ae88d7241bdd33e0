// Kernel-level correctness for the GEMM family: the fp32 gemm/gemm_at/
// gemm_bt and the int8 gemm_s8u8_bt are each checked against a
// naive triple loop over non-square, odd shapes — including shapes that
// straddle the cache-block boundaries, where off-by-one tiling bugs
// live. Quantization helpers get round-trip coverage, including the
// all-zero-channel and single-element-channel edge cases.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

namespace hs {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 float scale = 1.0f) {
    Tensor t({static_cast<int>(n)});
    Rng rng(seed);
    rng.fill_normal(t, 0.0, scale);
    return std::vector<float>(t.data().begin(), t.data().end());
}

std::vector<std::int8_t> random_s8(std::size_t n, std::uint64_t seed,
                                   int lo, int hi) {
    Rng rng(seed);
    std::vector<std::int8_t> v(n);
    for (auto& x : v)
        x = static_cast<std::int8_t>(lo + rng.uniform_int(hi - lo + 1));
    return v;
}

std::vector<std::uint8_t> random_u8(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
    return v;
}

void naive_gemm(int m, int n, int k, const std::vector<float>& a,
                const std::vector<float>& b, std::vector<float>& c) {
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int p = 0; p < k; ++p)
                acc += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
                       static_cast<double>(b[static_cast<std::size_t>(p * n + j)]);
            c[static_cast<std::size_t>(i * n + j)] = static_cast<float>(acc);
        }
}

// Shapes chosen to cross the int8 kernel's kBlockK=256 / kBlockN=512
// tiles and the fp32 kernel's blocking, with odd remainders in every
// dimension; plus degenerate 1-sized extents.
struct GemmShape {
    int m, n, k;
};
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {5, 1, 9},    {3, 4, 5},
    {7, 13, 17}, {2, 515, 33}, {3, 31, 259}, {4, 517, 261},
};

TEST(GemmFp32, MatchesNaiveOverOddShapes) {
    for (const auto& s : kShapes) {
        const auto a = random_floats(static_cast<std::size_t>(s.m * s.k), 11);
        const auto b = random_floats(static_cast<std::size_t>(s.k * s.n), 13);
        std::vector<float> want(static_cast<std::size_t>(s.m * s.n));
        naive_gemm(s.m, s.n, s.k, a, b, want);

        std::vector<float> got(want.size(), 0.0f);
        gemm(s.m, s.n, s.k, 1.0f, a, b, 0.0f, got);
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_NEAR(want[i], got[i], 1e-3f)
                << "gemm mismatch at " << i << " (m=" << s.m << " n=" << s.n
                << " k=" << s.k << ")";

        // gemm_at: A stored transposed [k, m].
        std::vector<float> at(a.size());
        for (int i = 0; i < s.m; ++i)
            for (int p = 0; p < s.k; ++p)
                at[static_cast<std::size_t>(p * s.m + i)] =
                    a[static_cast<std::size_t>(i * s.k + p)];
        std::fill(got.begin(), got.end(), 0.0f);
        gemm_at(s.m, s.n, s.k, 1.0f, at, b, 0.0f, got);
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_NEAR(want[i], got[i], 1e-3f)
                << "gemm_at mismatch at " << i << " (m=" << s.m
                << " n=" << s.n << " k=" << s.k << ")";

        // gemm_bt: B stored transposed [n, k].
        std::vector<float> bt(b.size());
        for (int p = 0; p < s.k; ++p)
            for (int j = 0; j < s.n; ++j)
                bt[static_cast<std::size_t>(j * s.k + p)] =
                    b[static_cast<std::size_t>(p * s.n + j)];
        std::fill(got.begin(), got.end(), 0.0f);
        gemm_bt(s.m, s.n, s.k, 1.0f, a, bt, 0.0f, got);
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_NEAR(want[i], got[i], 1e-3f)
                << "gemm_bt mismatch at " << i << " (m=" << s.m
                << " n=" << s.n << " k=" << s.k << ")";
    }
}

TEST(GemmFp32, AlphaBetaAccumulate) {
    const int m = 3, n = 5, k = 4;
    const auto a = random_floats(static_cast<std::size_t>(m * k), 21);
    const auto b = random_floats(static_cast<std::size_t>(k * n), 22);
    std::vector<float> base(static_cast<std::size_t>(m * n));
    naive_gemm(m, n, k, a, b, base);

    // C starts at 1.0 everywhere: expect 2·A·B + 0.5·1.
    std::vector<float> got(static_cast<std::size_t>(m * n), 1.0f);
    gemm(m, n, k, 2.0f, a, b, 0.5f, got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(2.0f * base[i] + 0.5f, got[i], 1e-3f);
}

TEST(GemmInt8, S8U8BtMatchesNaiveOverOddShapes) {
    for (const auto& s : kShapes) {
        // A respects the engine contract |a| <= kWeightQMax; B spans the
        // full u8 range so zero-point correction is fully exercised.
        const auto a = random_s8(static_cast<std::size_t>(s.m * s.k), 41,
                                 -kWeightQMax, kWeightQMax);
        const auto b = random_u8(static_cast<std::size_t>(s.n * s.k), 42);
        std::vector<std::int32_t> got(static_cast<std::size_t>(s.m * s.n),
                                      -1);
        gemm_s8u8_bt(s.m, s.n, s.k, a, b, got);
        // References accumulate in int64: gcc 12's AVX-512 autovectorizer
        // miscompiles `s32 += s8 · (u8 − const)` reductions (wrong operand
        // signedness in the vpdpbusd pattern), and an s32 accumulator is
        // what arms that pattern match.
        for (int i = 0; i < s.m; ++i)
            for (int j = 0; j < s.n; ++j) {
                std::int64_t want = 0;
                for (int p = 0; p < s.k; ++p)
                    want += static_cast<std::int64_t>(
                                a[static_cast<std::size_t>(i * s.k + p)]) *
                            (static_cast<std::int32_t>(
                                 b[static_cast<std::size_t>(j * s.k + p)]) -
                             kActZeroPoint);
                ASSERT_EQ(want, got[static_cast<std::size_t>(i * s.n + j)])
                    << "gemm_s8u8_bt mismatch at (" << i << "," << j
                    << ") m=" << s.m << " n=" << s.n << " k=" << s.k;
            }
    }
}

TEST(GemmInt8, S8U8BtExtremeOperandsNoSaturation) {
    // Worst case for the AVX2 maddubs int16 intermediate: max-magnitude
    // weights against max-magnitude centered activations, all same sign,
    // across a k large enough to cover main loop + both tails.
    const int m = 2, n = 3, k = 131;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k),
                               static_cast<std::int8_t>(kWeightQMax));
    std::vector<std::uint8_t> b(static_cast<std::size_t>(n * k), 255);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    gemm_s8u8_bt(m, n, k, a, b, c);
    const std::int32_t want = kWeightQMax * (255 - kActZeroPoint) * k;
    for (const auto v : c) EXPECT_EQ(want, v);

    for (auto& x : a) x = static_cast<std::int8_t>(-kWeightQMax);
    for (auto& x : b) x = 0;
    gemm_s8u8_bt(m, n, k, a, b, c);
    const std::int32_t want2 = -kWeightQMax * (0 - kActZeroPoint) * k;
    for (const auto v : c) EXPECT_EQ(want2, v);
}

TEST(GemmInt8, RefMatchesNaiveFullRangeOverOddShapes) {
    // gemm_s8u8_bt_ref is the oracle the tactic catalog is judged
    // against, so it gets its own naive check — at the FULL ±127 weight
    // range (it accumulates in int32/int64, no maddubs headroom limit).
    for (const auto& s : kShapes) {
        const auto a = random_s8(static_cast<std::size_t>(s.m * s.k), 43,
                                 -kWeightQMaxFull, kWeightQMaxFull);
        const auto b = random_u8(static_cast<std::size_t>(s.n * s.k), 44);
        std::vector<std::int32_t> got(static_cast<std::size_t>(s.m * s.n),
                                      -1);
        gemm_s8u8_bt_ref(s.m, s.n, s.k, a, b, got);
        for (int i = 0; i < s.m; ++i)
            for (int j = 0; j < s.n; ++j) {
                std::int64_t want = 0;  // s64: see the note in the s8 test
                for (int p = 0; p < s.k; ++p)
                    want += static_cast<std::int64_t>(
                                a[static_cast<std::size_t>(i * s.k + p)]) *
                            (static_cast<std::int32_t>(
                                 b[static_cast<std::size_t>(j * s.k + p)]) -
                             kActZeroPoint);
                ASSERT_EQ(want, got[static_cast<std::size_t>(i * s.n + j)])
                    << "gemm_s8u8_bt_ref mismatch at (" << i << "," << j
                    << ") m=" << s.m << " n=" << s.n << " k=" << s.k;
            }
    }
}

TEST(GemmInt8, VnniMatchesRefFullRangeOverOddShapes) {
    // On a non-VNNI host gemm_s8u8_bt_vnni IS the ref (runtime
    // fallback), so this degenerates to a self-check there and bit-
    // compares the AVX-512 VNNI tiles on hosts that have them.
    for (const auto& s : kShapes) {
        const auto a = random_s8(static_cast<std::size_t>(s.m * s.k), 45,
                                 -kWeightQMaxFull, kWeightQMaxFull);
        const auto b = random_u8(static_cast<std::size_t>(s.n * s.k), 46);
        std::vector<std::int32_t> want(static_cast<std::size_t>(s.m * s.n),
                                       -1);
        std::vector<std::int32_t> got(want.size(), -2);
        gemm_s8u8_bt_ref(s.m, s.n, s.k, a, b, want);
        gemm_s8u8_bt_vnni(s.m, s.n, s.k, a, b, got);
        ASSERT_EQ(want, got) << "m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
}

TEST(GemmInt8, QgemmEveryCatalogTacticBitExactOverOddShapes) {
    // Every executable (kernel, ways) combination must produce bit-
    // identical results to the scalar reference — including m < ways
    // (the dispatcher folds the tiling down) and shapes whose k is not a
    // multiple of any pack width. 7-bit operands so the maddubs kernel's
    // reduced-range contract holds for every candidate.
    for (const auto& s : kShapes) {
        const auto a = random_s8(static_cast<std::size_t>(s.m * s.k), 47,
                                 -kWeightQMax, kWeightQMax);
        const auto b = random_u8(static_cast<std::size_t>(s.n * s.k), 48);
        std::vector<std::int32_t> want(static_cast<std::size_t>(s.m * s.n),
                                       -1);
        gemm_s8u8_bt_ref(s.m, s.n, s.k, a, b, want);
        for (const QKernel kern :
             {QKernel::kAuto, QKernel::kScalarRef, QKernel::kMaddubs,
              QKernel::kVnni}) {
            for (const int ways : {1, 2, 4}) {
                QGemmTactic t;
                t.kernel = kern;
                t.ways = static_cast<std::uint8_t>(ways);
                t.wbits = 7;
                QGemmTactic probe = t;
                if (normalize_tactic(probe) && probe.kernel != t.kernel)
                    continue;  // not executable on this host (e.g. VNNI)
                std::vector<std::int32_t> got(want.size(), -2);
                qgemm(t, s.m, s.n, s.k, a, b, got);
                ASSERT_EQ(want, got)
                    << "kernel " << static_cast<int>(kern) << " ways "
                    << ways << " m=" << s.m << " n=" << s.n
                    << " k=" << s.k;
            }
        }
    }
}

TEST(GemmInt8, NormalizeTacticDegradesBogusAndInexecutable) {
    // Unknown kernel ids (a v5 file from a newer writer) degrade to a
    // contract-respecting fallback instead of executing garbage.
    QGemmTactic bogus;
    bogus.kernel = static_cast<QKernel>(0xEE);
    bogus.ways = 3;
    bogus.wbits = 8;
    EXPECT_TRUE(normalize_tactic(bogus));
    EXPECT_EQ(QKernel::kScalarRef, bogus.kernel);  // 8-bit needs full range
    EXPECT_EQ(1, bogus.ways);

    QGemmTactic bogus7;
    bogus7.kernel = static_cast<QKernel>(0x7F);
    bogus7.wbits = 7;
    EXPECT_TRUE(normalize_tactic(bogus7));
    EXPECT_EQ(QKernel::kAuto, bogus7.kernel);  // heuristic dispatch

    // A maddubs tactic claiming 8-bit weights violates the kernel's
    // reduced-range contract and must not keep the kernel.
    QGemmTactic narrow;
    narrow.kernel = QKernel::kMaddubs;
    narrow.wbits = 8;
    EXPECT_TRUE(normalize_tactic(narrow));
    EXPECT_EQ(QKernel::kScalarRef, narrow.kernel);

    // The default tactic is already normal.
    QGemmTactic ok;
    EXPECT_FALSE(normalize_tactic(ok));
}

TEST(QuantizeInt8, S8RoundTripWithinHalfStep) {
    const auto x = random_floats(257, 51, 2.0f);
    float maxabs = 0.0f;
    for (const float v : x) maxabs = std::max(maxabs, std::fabs(v));
    const float scale = maxabs / static_cast<float>(kWeightQMax);
    std::vector<std::int8_t> q(x.size());
    quantize_s8(x, 1.0f / scale, kWeightQMax, q);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_LE(std::abs(static_cast<int>(q[i])), kWeightQMax);
        EXPECT_NEAR(x[i], static_cast<float>(q[i]) * scale, 0.5f * scale + 1e-6f);
    }
}

TEST(QuantizeInt8, S8AllZeroChannel) {
    // An all-zero channel has scale 0; the convention is inv_scale 0 and
    // the round trip must yield exact zeros, not NaN.
    const std::vector<float> x(19, 0.0f);
    std::vector<std::int8_t> q(x.size(), 1);
    quantize_s8(x, 0.0f, kWeightQMax, q);
    for (const auto v : q) EXPECT_EQ(0, v);
}

TEST(QuantizeInt8, S8SingleElementChannel) {
    // A 1-element row (1x1 conv on one input channel): the sole value
    // must land exactly on +/-qmax.
    for (const float v : {3.25f, -0.004f}) {
        const std::vector<float> x{v};
        const float scale = std::fabs(v) / static_cast<float>(kWeightQMax);
        std::vector<std::int8_t> q(1);
        quantize_s8(x, 1.0f / scale, kWeightQMax, q);
        EXPECT_EQ(v > 0 ? kWeightQMax : -kWeightQMax, static_cast<int>(q[0]));
        EXPECT_NEAR(v, static_cast<float>(q[0]) * scale, 1e-6f);
    }
}

TEST(QuantizeInt8, U8RoundTripAndClamp) {
    const auto x = random_floats(300, 61, 1.5f);
    float maxabs = 0.0f;
    for (const float v : x) maxabs = std::max(maxabs, std::fabs(v));
    const float scale = maxabs / static_cast<float>(kActQMax);
    std::vector<std::uint8_t> q(x.size());
    quantize_u8(x, 1.0f / scale, q);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float back =
            static_cast<float>(static_cast<int>(q[i]) - kActZeroPoint) * scale;
        EXPECT_NEAR(x[i], back, 0.5f * scale + 1e-6f);
    }

    // Out-of-range values saturate at the u8 rails instead of wrapping.
    const std::vector<float> wild{1e9f, -1e9f, 0.0f};
    std::vector<std::uint8_t> qw(wild.size());
    quantize_u8(wild, 1.0f / scale, qw);
    EXPECT_EQ(255, static_cast<int>(qw[0]));
    EXPECT_EQ(0, static_cast<int>(qw[1]));
    EXPECT_EQ(kActZeroPoint, static_cast<int>(qw[2]));
}

void check_im2row_u8(const ConvGeom& g) {
    const auto image = random_floats(
        static_cast<std::size_t>(g.channels * g.height * g.width), 71);
    const float inv_scale = static_cast<float>(kActQMax) / 2.5f;

    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(g, image, cols);

    std::vector<std::uint8_t> qimg(image.size());
    quantize_u8(image, inv_scale, qimg);
    const std::int64_t stride = padded_k(g.col_rows());
    std::vector<std::uint8_t> rows(
        static_cast<std::size_t>(stride * g.col_cols()), 7);
    im2row_u8(g, qimg, stride, rows);

    // rows is the cols matrix transposed ([oh·ow, stride]) with each
    // element drawn from the pre-quantized image; im2col's zero padding
    // must come out as the zero point (quantize_u8(0) == 128). The
    // [col_rows, stride) tail of a row is unspecified by contract — the
    // matching weight pad is zero — so only [0, col_rows) is checked.
    for (std::int64_t c = 0; c < g.col_cols(); ++c) {
        for (std::int64_t r = 0; r < g.col_rows(); ++r) {
            std::vector<std::uint8_t> one(1);
            quantize_u8(
                std::span<const float>(
                    &cols[static_cast<std::size_t>(r * g.col_cols() + c)], 1),
                inv_scale, one);
            ASSERT_EQ(static_cast<int>(one[0]),
                      static_cast<int>(
                          rows[static_cast<std::size_t>(c * stride + r)]))
                << "patch row " << c << " element " << r << " (C="
                << g.channels << " H=" << g.height << " W=" << g.width
                << " k=" << g.kernel << " s=" << g.stride << " p=" << g.pad
                << ")";
        }
    }
}

TEST(QuantizeInt8, Im2RowU8MatchesIm2colPlusQuantize) {
    // Geometries covering every copy path: 3×3 with/without padding at
    // strides 1 and 2, 1×1 downsampling, a wide kernel, non-square
    // images, and channel counts where C·k·k is/isn't a kQKAlign
    // multiple (spill vs exact-copy inner loops).
    const struct {
        int c, h, w, k, s, p;
    } geoms[] = {
        {3, 7, 5, 3, 2, 1}, {3, 16, 16, 3, 1, 1}, {8, 16, 16, 3, 1, 1},
        {32, 3, 3, 3, 1, 1}, {64, 4, 4, 1, 2, 0}, {16, 5, 9, 3, 1, 0},
        {1, 9, 9, 5, 2, 2}, {2, 4, 4, 3, 1, 1},  {4, 1, 7, 1, 1, 0},
    };
    for (const auto& ge : geoms) {
        ConvGeom g;
        g.channels = ge.c;
        g.height = ge.h;
        g.width = ge.w;
        g.kernel = ge.k;
        g.stride = ge.s;
        g.pad = ge.p;
        check_im2row_u8(g);
    }
}

} // namespace
} // namespace hs
