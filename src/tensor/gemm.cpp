#include "tensor/gemm.h"

#include <cstring>

namespace hs {
namespace {

constexpr int kBlockK = 256; // fits L1 alongside a C row tile
constexpr int kBlockN = 512;

void scale_c(int m, int n, float beta, std::span<float> c) {
    if (beta == 1.0f) return;
    const std::int64_t total = static_cast<std::int64_t>(m) * n;
    if (beta == 0.0f) {
        std::memset(c.data(), 0, static_cast<std::size_t>(total) * sizeof(float));
        return;
    }
    for (std::int64_t i = 0; i < total; ++i) c[static_cast<std::size_t>(i)] *= beta;
}

} // namespace

void gemm(int m, int n, int k, float alpha, std::span<const float> a,
          std::span<const float> b, float beta, std::span<float> c) {
    require(static_cast<std::int64_t>(a.size()) >= static_cast<std::int64_t>(m) * k &&
                static_cast<std::int64_t>(b.size()) >= static_cast<std::int64_t>(k) * n &&
                static_cast<std::int64_t>(c.size()) >= static_cast<std::int64_t>(m) * n,
            "gemm: span sizes too small for the given dimensions");
    scale_c(m, n, beta, c);

#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i = 0; i < m; ++i) {
        float* __restrict crow = c.data() + static_cast<std::int64_t>(i) * n;
        for (int k0 = 0; k0 < k; k0 += kBlockK) {
            const int kmax = k0 + kBlockK < k ? k0 + kBlockK : k;
            for (int n0 = 0; n0 < n; n0 += kBlockN) {
                const int nmax = n0 + kBlockN < n ? n0 + kBlockN : n;
                for (int p = k0; p < kmax; ++p) {
                    const float av = alpha * a[static_cast<std::size_t>(
                                                  static_cast<std::int64_t>(i) * k + p)];
                    if (av == 0.0f) continue;
                    const float* __restrict brow =
                        b.data() + static_cast<std::int64_t>(p) * n;
                    for (int j = n0; j < nmax; ++j) crow[j] += av * brow[j];
                }
            }
        }
    }
}

void gemm_at(int m, int n, int k, float alpha, std::span<const float> a,
             std::span<const float> b, float beta, std::span<float> c) {
    require(static_cast<std::int64_t>(a.size()) >= static_cast<std::int64_t>(k) * m &&
                static_cast<std::int64_t>(b.size()) >= static_cast<std::int64_t>(k) * n &&
                static_cast<std::int64_t>(c.size()) >= static_cast<std::int64_t>(m) * n,
            "gemm_at: span sizes too small for the given dimensions");
    scale_c(m, n, beta, c);

#pragma omp parallel for schedule(static) if (static_cast<std::int64_t>(m) * n * k > 1 << 18)
    for (int i = 0; i < m; ++i) {
        float* __restrict crow = c.data() + static_cast<std::int64_t>(i) * n;
        for (int p = 0; p < k; ++p) {
            // A is stored k×m, so A^T(i,p) = A(p,i).
            const float av =
                alpha * a[static_cast<std::size_t>(static_cast<std::int64_t>(p) * m + i)];
            if (av == 0.0f) continue;
            const float* __restrict brow = b.data() + static_cast<std::int64_t>(p) * n;
            for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    require(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 tensors");
    require(a.dim(1) == b.dim(0), "matmul inner dimensions must agree: " +
                                      shape_str(a.shape()) + " x " +
                                      shape_str(b.shape()));
    Tensor c({a.dim(0), b.dim(1)});
    gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
    return c;
}

} // namespace hs
