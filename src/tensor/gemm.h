#pragma once

// Dense matrix multiply kernels. All convolutions and fully connected
// layers lower onto these, so they are the library's hot path. gemm and
// gemm_at are cache-blocked triple loops with the k-loop hoisted (ikj
// order) so the compiler vectorizes the j-direction; gemm_bt packs Bᵀ and
// vectorizes across output columns by hand. OpenMP parallelizes all
// three over rows when enabled at configure time.

#include "tensor/tensor.h"

namespace hs {

/// C(m×n) = alpha * A(m×k) · B(k×n) + beta * C.
/// All matrices are dense row-major spans; no aliasing between C and A/B.
void gemm(int m, int n, int k, float alpha, std::span<const float> a,
          std::span<const float> b, float beta, std::span<float> c);

/// C(m×n) = alpha * Aᵀ(m×k stored as k×m) · B(k×n) + beta * C.
void gemm_at(int m, int n, int k, float alpha, std::span<const float> a,
             std::span<const float> b, float beta, std::span<float> c);

/// C(m×n) = alpha * A(m×k) · Bᵀ(k×n stored as n×k) + beta * C.
///
/// Packed kernel (gemm_bt.cpp): up to 64 columns of B are packed
/// transposed into a k-row tile, and each row of A is reduced against
/// the whole tile at once, one SIMD accumulator lane per output element.
/// The tile's width follows the columns packed, rounded up to 8.
///
/// Every element keeps the rounding of the plain dot-product loop this
/// replaced, as GCC compiled it at -O3 -march=native (an 8-wide in-order
/// vector reduction with a contracted tail). With s = beta·C (rounded;
/// beta == 0 gives 0, beta == 1 gives C):
///   1. the first 8·⌊k/8⌋ products are each rounded and added left to
///      right into acc = 0;
///   2. the remaining k mod 8 terms (all k when k < 8) are fused:
///      acc = fma(a, b, acc);
///   3. C = fma(alpha, acc, s).
/// Fine-tuning's weight gradients, and so the pruning trace, depend on
/// this rounding, and no element depends on m or on its column's place
/// in a tile (the engine batches Linear rows; serving compares them byte
/// for byte with batch-1 replies). tensor_test pins the contract, that
/// independence, and (in optimized GCC builds) equality with the old loop.
void gemm_bt(int m, int n, int k, float alpha, std::span<const float> a,
             std::span<const float> b, float beta, std::span<float> c);

/// Tensor-level convenience: returns A·B for rank-2 tensors.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

} // namespace hs
