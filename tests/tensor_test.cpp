// Unit tests for the tensor substrate: Tensor, Rng, gemm, im2col.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace hs {
namespace {

TEST(Tensor, ZeroInitialized) {
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, ShapeAccessors) {
    Tensor t({4, 3, 2, 5});
    EXPECT_EQ(t.rank(), 4);
    EXPECT_EQ(t.dim(0), 4);
    EXPECT_EQ(t.dim(3), 5);
    EXPECT_EQ(t.numel(), 120);
    EXPECT_THROW((void)t.dim(4), Error);
}

TEST(Tensor, AtIndexingRowMajor) {
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
    Tensor u({2, 2, 2, 2});
    u.at(1, 1, 1, 1) = 3.0f;
    EXPECT_EQ(u[15], 3.0f);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({2, 3});
    for (int i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
    const Tensor r = t.reshape({3, 2});
    EXPECT_EQ(r.at(2, 1), 5.0f);
    EXPECT_THROW((void)t.reshape({4, 2}), Error);
}

TEST(Tensor, FillAndScale) {
    Tensor t = Tensor::full({3}, 2.0f);
    t.scale_(1.5f);
    EXPECT_FLOAT_EQ(t[0], 3.0f);
    t.zero();
    EXPECT_EQ(t.sum(), 0.0);
}

TEST(Tensor, AxpyAddsScaled) {
    Tensor a = Tensor::full({4}, 1.0f);
    Tensor b = Tensor::full({4}, 2.0f);
    a.axpy_(0.5f, b);
    for (float v : a.data()) EXPECT_FLOAT_EQ(v, 2.0f);
    Tensor c({3});
    EXPECT_THROW(a.axpy_(1.0f, c), Error);
}

TEST(Tensor, SumMeanAbsMax) {
    Tensor t({4});
    t[0] = -3.0f; t[1] = 1.0f; t[2] = 2.0f; t[3] = 0.0f;
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
}

TEST(Tensor, ArgmaxRange) {
    Tensor t({6});
    t[0] = 1; t[1] = 5; t[2] = 2; t[3] = 0; t[4] = 9; t[5] = 3;
    EXPECT_EQ(t.argmax_range(0, 3), 1);
    EXPECT_EQ(t.argmax_range(3, 3), 1); // relative to begin
    EXPECT_THROW((void)t.argmax_range(4, 3), Error);
}

TEST(Tensor, EqualsAndAllclose) {
    Tensor a = Tensor::full({3}, 1.0f);
    Tensor b = Tensor::full({3}, 1.0f);
    EXPECT_TRUE(a.equals(b));
    b[1] = 1.0f + 5e-6f;
    EXPECT_FALSE(a.equals(b));
    EXPECT_TRUE(a.allclose(b, 1e-5f));
    EXPECT_FALSE(a.allclose(b, 1e-7f));
}

TEST(Rng, Deterministic) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRange) {
    Rng rng(9);
    std::vector<int> hits(5, 0);
    for (int i = 0; i < 5000; ++i) ++hits[static_cast<std::size_t>(rng.uniform_int(5))];
    for (int h : hits) EXPECT_GT(h, 700);
}

TEST(Rng, NormalMoments) {
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / kN, 0.0, 0.05);
    EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(13);
    int ones = 0;
    for (int i = 0; i < 10000; ++i)
        if (rng.bernoulli(0.3)) ++ones;
    EXPECT_NEAR(ones / 10000.0, 0.3, 0.03);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ShufflePermutes) {
    Rng rng(15);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_NE(v, sorted); // overwhelmingly likely
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependent) {
    Rng parent(21);
    Rng child = parent.fork();
    EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Gemm, MatchesNaive) {
    Rng rng(3);
    const int m = 7, n = 9, k = 5;
    Tensor a({m, k}), b({k, n});
    rng.fill_normal(a, 0.0, 1.0);
    rng.fill_normal(b, 0.0, 1.0);
    Tensor c({m, n});
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int p = 0; p < k; ++p) acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4) << i << "," << j;
        }
}

TEST(Gemm, AlphaBeta) {
    const int m = 2, n = 2, k = 2;
    Tensor a = Tensor::full({m, k}, 1.0f);
    Tensor b = Tensor::full({k, n}, 1.0f);
    Tensor c = Tensor::full({m, n}, 10.0f);
    gemm(m, n, k, 2.0f, a.data(), b.data(), 0.5f, c.data());
    for (float v : c.data()) EXPECT_FLOAT_EQ(v, 9.0f); // 0.5*10 + 2*2
}

TEST(Gemm, TransposedAMatchesNaive) {
    Rng rng(5);
    const int m = 6, n = 4, k = 3;
    Tensor at({k, m}), b({k, n});
    rng.fill_normal(at, 0.0, 1.0);
    rng.fill_normal(b, 0.0, 1.0);
    Tensor c({m, n});
    gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int p = 0; p < k; ++p) acc += static_cast<double>(at.at(p, i)) * b.at(p, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4);
        }
}

TEST(Gemm, TransposedBMatchesNaive) {
    Rng rng(6);
    const int m = 5, n = 7, k = 4;
    Tensor a({m, k}), bt({n, k});
    rng.fill_normal(a, 0.0, 1.0);
    rng.fill_normal(bt, 0.0, 1.0);
    Tensor c({m, n});
    gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int p = 0; p < k; ++p) acc += static_cast<double>(a.at(i, p)) * bt.at(j, p);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4);
        }
}

// gemm_bt's rounding contract, one rounding at a time: the products of
// the first 8·⌊k/8⌋ terms are rounded and added left to right into 0, the
// remaining k mod 8 terms are fused, then c = fma(alpha, acc, c). The
// volatile stores round every product and sum to float, so no compiler
// contraction can reach this reference.
float bt_contract_dot(const float* a, const float* b, int k) {
    const int body = k / 8 * 8;
    volatile float acc = 0.0f;
    for (int p = 0; p < body; ++p) {
        volatile float prod = a[p] * b[p];
        acc = acc + prod;
    }
    float sum = acc;
    for (int p = body; p < k; ++p) sum = std::fma(a[p], b[p], sum);
    return sum;
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// One gemm_bt call's operands: A and Bᵀ start `offset` floats into their
/// buffers, and C starts as NaN where beta == 0 (which must ignore it).
struct BtCase {
    int m, n, k, offset;
    float alpha, beta;
    std::vector<float> a, b, c;

    BtCase(int m_, int n_, int k_, int offset_, float alpha_, float beta_, Rng& rng)
        : m(m_), n(n_), k(k_), offset(offset_), alpha(alpha_), beta(beta_),
          a(static_cast<std::size_t>(m * k + offset)),
          b(static_cast<std::size_t>(n * k + offset)),
          c(static_cast<std::size_t>(m * n)) {
        for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
        for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
        for (auto& v : c)
            v = beta == 0.0f ? std::numeric_limits<float>::quiet_NaN()
                             : static_cast<float>(rng.normal(0.0, 1.0));
    }
    std::span<const float> a_op() const { return {a.data() + offset, static_cast<std::size_t>(m * k)}; }
    std::span<const float> b_op() const { return {b.data() + offset, static_cast<std::size_t>(n * k)}; }
};

/// Every (k, pointer offset) for k = 1…600 at a 9-column C (one partial
/// vector past a full one), cycling alpha ∈ {1, 0.37} × beta ∈ {0, 1};
/// then n ∈ {1, 4, 63, 64, 65, 577} (partial, full and multiple tiles)
/// at body/tail boundaries of k, under every alpha × beta.
template <typename F>
void for_each_bt_case(F&& check) {
    Rng rng(27);
    const float alphas[] = {1.0f, 0.37f};
    const float betas[] = {0.0f, 1.0f};
    for (int k = 1; k <= 600; ++k)
        for (int offset = 0; offset < 6; ++offset) {
            const int combo = (k + offset) % 4;
            check(BtCase(2, 9, k, offset, alphas[combo / 2], betas[combo % 2], rng));
        }
    for (const int n : {1, 4, 63, 64, 65, 577})
        for (const int k : {1, 7, 8, 9, 16, 100, 255})
            for (const float alpha : alphas)
                for (const float beta : betas)
                    check(BtCase(3, n, k, (n + k) % 6, alpha, beta, rng));
}

TEST(Gemm, TransposedBFollowsRoundingContract) {
    int mismatches = 0;
    for_each_bt_case([&](BtCase t) {
        const std::vector<float> c0 = t.c;
        gemm_bt(t.m, t.n, t.k, t.alpha, t.a_op(), t.b_op(), t.beta, t.c);
        for (int i = 0; i < t.m; ++i)
            for (int j = 0; j < t.n; ++j) {
                const std::size_t at = static_cast<std::size_t>(i * t.n + j);
                const float dot = bt_contract_dot(t.a_op().data() + i * t.k,
                                                  t.b_op().data() + j * t.k, t.k);
                const float want =
                    std::fma(t.alpha, dot, t.beta == 0.0f ? 0.0f : c0[at]);
                if (bits(t.c[at]) != bits(want) && ++mismatches <= 5)
                    ADD_FAILURE() << "m=" << t.m << " n=" << t.n << " k=" << t.k
                                  << " offset=" << t.offset << " alpha=" << t.alpha
                                  << " beta=" << t.beta << " C(" << i << "," << j
                                  << "): " << t.c[at] << " want " << want;
            }
    });
    EXPECT_EQ(mismatches, 0);
}

TEST(Gemm, TransposedBRowIndependentOfBatchAndTileSlot) {
    // The engine batches classifier rows and the serving path compares
    // them byte for byte with batch-1 replies: an element may depend on
    // neither how many rows share the call nor where its column falls
    // in a packed tile.
    Rng rng(28);
    const int m = 9, n = 150, k = 37;
    Tensor a({m, k}), bt({n, k});
    rng.fill_normal(a, 0.0, 1.0);
    rng.fill_normal(bt, 0.0, 1.0);
    Tensor full({m, n});
    gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, full.data());
    for (int i = 0; i < m; ++i) {
        Tensor row({1, n});
        gemm_bt(1, n, k, 1.0f, a.data().subspan(static_cast<std::size_t>(i * k)),
                bt.data(), 0.0f, row.data());
        for (int j = 0; j < n; ++j)
            ASSERT_EQ(bits(row[j]), bits(full.at(i, j))) << "row " << i << " col " << j;
    }
    for (const int skip : {1, 5, 8, 63, 64, 65, 149}) {
        const int cols = n - skip;
        Tensor part({m, cols});
        gemm_bt(m, cols, k, 1.0f, a.data(),
                bt.data().subspan(static_cast<std::size_t>(skip * k)), 0.0f, part.data());
        for (int i = 0; i < m; ++i)
            for (int j = 0; j < cols; ++j)
                ASSERT_EQ(bits(part.at(i, j)), bits(full.at(i, skip + j)))
                    << "skip " << skip << " row " << i << " col " << j;
    }
}

#if defined(__OPTIMIZE__) && defined(__AVX2__) && defined(__FMA__) && defined(__GNUC__) && \
    !defined(__clang__)
// The loop gemm_bt ran before it packed Bᵀ, verbatim. GCC at -O3
// -march=native (the Release flags) vectorizes its products 8 wide, adds
// them in order, and contracts the remainder and the alpha step into
// fmas; that is where the rounding contract comes from. noipa keeps the
// call sites from specializing it.
__attribute__((noipa)) void parent_gemm_bt(int m, int n, int k, float alpha,
                                           std::span<const float> a,
                                           std::span<const float> b, float beta,
                                           std::span<float> c) {
    if (beta == 0.0f)
        std::fill(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(m) * n, 0.0f);
    else if (beta != 1.0f)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(m) * n; ++i)
            c[static_cast<std::size_t>(i)] *= beta;
#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i = 0; i < m; ++i) {
        const float* __restrict arow = a.data() + static_cast<std::int64_t>(i) * k;
        float* __restrict crow = c.data() + static_cast<std::int64_t>(i) * n;
        for (int j = 0; j < n; ++j) {
            const float* __restrict brow = b.data() + static_cast<std::int64_t>(j) * k;
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
            crow[j] += alpha * acc;
        }
    }
}
#endif

TEST(Gemm, TransposedBBitEqualToParentLoop) {
#if defined(__OPTIMIZE__) && defined(__AVX2__) && defined(__FMA__) && defined(__GNUC__) && \
    !defined(__clang__)
    int mismatches = 0;
    for_each_bt_case([&](BtCase t) {
        std::vector<float> want = t.c;
        parent_gemm_bt(t.m, t.n, t.k, t.alpha, t.a_op(), t.b_op(), t.beta, want);
        gemm_bt(t.m, t.n, t.k, t.alpha, t.a_op(), t.b_op(), t.beta, t.c);
        for (std::size_t at = 0; at < want.size(); ++at)
            if (bits(t.c[at]) != bits(want[at]) && ++mismatches <= 5)
                ADD_FAILURE() << "m=" << t.m << " n=" << t.n << " k=" << t.k
                              << " offset=" << t.offset << " element " << at << ": "
                              << t.c[at] << " want " << want[at];
    });
    EXPECT_EQ(mismatches, 0);
#else
    GTEST_SKIP() << "the parent loop's rounding is that of GCC's optimized AVX2+FMA build";
#endif
}

TEST(Gemm, Matmul) {
    Tensor a({1, 2});
    a[0] = 3.0f; a[1] = 4.0f;
    Tensor b({2, 1});
    b[0] = 5.0f; b[1] = 6.0f;
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c[0], 39.0f);
    Tensor bad({3, 1});
    EXPECT_THROW((void)matmul(a, bad), Error);
}

TEST(Im2col, IdentityKernelNoPad) {
    // 1x1 kernel, stride 1: cols == image.
    ConvGeom g{1, 3, 3, 1, 1, 0};
    Tensor img({9});
    for (int i = 0; i < 9; ++i) img[i] = static_cast<float>(i);
    Tensor cols({9});
    im2col(g, img.data(), cols.data());
    EXPECT_TRUE(cols.equals(img));
}

TEST(Im2col, PaddingWritesZeros) {
    ConvGeom g{1, 2, 2, 3, 1, 1};
    Tensor img = Tensor::full({4}, 1.0f);
    Tensor cols({static_cast<int>(g.col_rows() * g.col_cols())});
    im2col(g, img.data(), cols.data());
    // Top-left output, top-left kernel tap reads the (-1,-1) pad → 0.
    EXPECT_EQ(cols[0], 0.0f);
    // Center taps read real pixels.
    double sum = cols.sum();
    EXPECT_DOUBLE_EQ(sum, 16.0); // each of 4 pixels appears in 4 windows
}

TEST(Im2col, Col2imRoundTripAccumulates) {
    // col2im(im2col(x)) multiplies each pixel by its window multiplicity.
    ConvGeom g{2, 4, 4, 3, 1, 1};
    Rng rng(8);
    Tensor img({2 * 4 * 4});
    rng.fill_normal(img, 0.0, 1.0);
    Tensor cols({static_cast<int>(g.col_rows() * g.col_cols())});
    im2col(g, img.data(), cols.data());
    Tensor back({2 * 4 * 4});
    col2im(g, cols.data(), back.data());
    // Interior pixels of a 4x4 with 3x3/pad1 appear in 9 windows; corners 4.
    EXPECT_NEAR(back[5], 9.0f * img[5], 1e-4);  // (1,1) interior
    EXPECT_NEAR(back[0], 4.0f * img[0], 1e-4);  // corner
}

TEST(Im2col, StrideGeometry) {
    ConvGeom g{1, 5, 5, 3, 2, 0};
    EXPECT_EQ(g.out_h(), 2);
    EXPECT_EQ(g.out_w(), 2);
    EXPECT_EQ(g.col_rows(), 9);
    EXPECT_EQ(g.col_cols(), 4);
}

TEST(ShapeHelpers, NumelAndStr) {
    EXPECT_EQ(shape_numel({2, 3, 4}), 24);
    EXPECT_EQ(shape_numel({}), 0);
    EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
    EXPECT_THROW((void)shape_numel({2, -1}), Error);
}

} // namespace
} // namespace hs
