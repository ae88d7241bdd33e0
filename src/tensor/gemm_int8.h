#pragma once

// Int8 matrix multiply kernels and quantization helpers — the hot path of
// the frozen engine's Precision::kInt8 plan (see DESIGN.md §10).
//
// Scheme (symmetric weights, shifted activations):
//  * weights are quantized per output channel to signed 7-bit
//    [-kWeightQMax, kWeightQMax]: w_q = round(w / s_w), s_w = max|row|/63.
//    The 7-bit ceiling guarantees the AVX2 maddubs path below cannot
//    saturate its int16 intermediate (2 · 255 · 63 = 32130 < 32767) —
//    the same "reduced range" contract ONNX Runtime uses on pre-VNNI
//    hardware. One bit of weight precision buys a 4×-wide multiplier.
//  * activations are quantized per tensor to u8 with a fixed zero point
//    of kActZeroPoint = 128: x_q = round(x / s_x) + 128, s_x calibrated
//    as max|x|/127 over a representative batch.
//  * accumulation is int32; the engine fuses dequantization
//    (y = acc · s_w[f] · s_x + bias[f], optional ReLU) into the output
//    write, so no extra pass touches the activations.
//
// The engine's kernel is gemm_s8u8_bt — C(m×n) s32 = A(m×k, s8) ·
// Bᵀ(n×k, u8 − 128). Both operand rows are contiguous byte runs, so one
// dot-product loop serves every conv shape — the deep-layer "transposed
// weight" repack the fp32 path needs (freeze.h) is unnecessary in int8.
// The AVX2 path computes 2×4 output tiles with the horizontal reductions
// shared across the tile; exact for |a| ≤ kWeightQMax. The u8 zero point
// is corrected inside the kernel (−128 · Σ a_row), so C holds true
// products of the centered values.
//
// The engine pads the reduction dimension to kQKAlign (padded_k) with
// zero weight bytes and zero-point activation bytes — both contribute
// exactly zero to every product — so the hot path never runs the
// kernels' scalar k-tails. The kernels themselves stay correct for any
// k; padding is purely a caller-side optimization.
//
// Rounding is to-nearest-even everywhere (scalar std::lrintf and the
// vector cvtps path agree bit-for-bit), so SIMD and scalar builds
// quantize identically.

#include <cstdint>
#include <span>

#include "tensor/im2col.h"

namespace hs {

/// Fixed zero point of u8-quantized activations.
inline constexpr int kActZeroPoint = 128;
/// Weight quantization ceiling: signed 7-bit, saturation-free under
/// the AVX2 maddubs inner loop.
inline constexpr int kWeightQMax = 63;
/// Full signed 8-bit weight ceiling, usable by kernels whose inner loop
/// accumulates into int32 directly (VNNI vpdpbusd, scalar reference) —
/// the maddubs int16 intermediate contract does not apply to them.
inline constexpr int kWeightQMaxFull = 127;
/// Activation quantization ceiling (symmetric around the zero point).
inline constexpr int kActQMax = 127;
/// Packed-operand row alignment: one AVX2 register of bytes.
inline constexpr int kQKAlign = 32;

/// Reduction length rounded up to the packed-row alignment.
[[nodiscard]] inline std::int64_t padded_k(std::int64_t k) {
    return (k + kQKAlign - 1) / kQKAlign * kQKAlign;
}

/// C(m×n) s32 = A(m×k, s8) · Bᵀ(n×k, u8 with zero point 128), i.e.
/// c[i,j] = Σ_p a[i·k+p] · (b[j·k+p] − 128). C is overwritten. Exact
/// when |a| ≤ kWeightQMax (the engine's weight contract); larger
/// magnitudes may saturate the AVX2 int16 intermediate.
void gemm_s8u8_bt(int m, int n, int k, std::span<const std::int8_t> a,
                  std::span<const std::uint8_t> b,
                  std::span<std::int32_t> c);

// ---------------------------------------------------------------------
// Tactic catalog (DESIGN.md §14). The frozen plan records, per conv/FC
// op, which kernel + partitioning the freeze-time tuner measured fastest
// for that layer's GEMM shape; qgemm() dispatches on it at run time.
// ---------------------------------------------------------------------

/// Inner-loop kernel of an int8 GEMM tactic. Values are serialized into
/// HSWT v5 plans — append new kernels, never renumber. A loader that
/// meets an id it does not know (or whose kernel this host cannot run)
/// falls back via normalize_tactic().
enum class QKernel : std::uint8_t {
    kAuto = 0,     ///< heuristic dispatch: gemm_s8u8_bt (7-bit contract)
    kScalarRef = 1, ///< portable reference loop; full 8-bit safe
    kMaddubs = 2,  ///< AVX2/AVX-512BW maddubs path; |w| ≤ kWeightQMax
    kVnni = 3,     ///< AVX-512 VNNI vpdpbusd; full 8-bit weights
};

/// One dispatch decision for a conv/FC GEMM shape: inner kernel, intra-op
/// row partitioning (TaskPool fan-out), the weight range the plan was
/// quantized to, and — for convs — whether im2row patch rows are stacked
/// across the batch into one wide GEMM.
struct QGemmTactic {
    QKernel kernel = QKernel::kAuto;
    std::uint8_t ways = 1;        ///< row partitions: 1, 2 or 4
    std::uint8_t wbits = 7;       ///< weight width: 7 (|w| ≤ 63) or 8 (≤ 127)
    bool batch_stack = false;     ///< conv: one GEMM over the whole batch
};

/// True when this host can execute the VNNI kernel (compiled in and the
/// CPU reports AVX512-VNNI at run time).
[[nodiscard]] bool cpu_supports_vnni();

/// Weight quantization ceiling implied by a kernel's contract.
[[nodiscard]] inline int kernel_weight_qmax(QKernel k) {
    return (k == QKernel::kScalarRef || k == QKernel::kVnni)
               ? kWeightQMaxFull
               : kWeightQMax;
}

/// Clamp a (possibly deserialized-from-the-future) tactic onto something
/// this host can execute exactly: unknown or unavailable kernels fall
/// back to the heuristic path (kAuto) for 7-bit plans and to the scalar
/// reference for 8-bit plans (the maddubs contract would saturate);
/// out-of-range `ways` collapses to 1. Returns true when anything
/// changed — callers surface that as a fallback event.
bool normalize_tactic(QGemmTactic& t);

/// Tactic-dispatched GEMM: same contract as gemm_s8u8_bt (C(m×n) s32 =
/// A(m×k, s8) · Bᵀ(n×k, u8 − 128)) but the inner kernel and row
/// partitioning come from `t`. ways > 1 splits A's rows into contiguous
/// chunks executed on the shared TaskPool; every chunk runs the same kernel
/// over the full reduction length, so the result is bit-identical to the
/// 1-way run of the same kernel. The tactic is normalized on entry.
void qgemm(const QGemmTactic& t, int m, int n, int k,
           std::span<const std::int8_t> a, std::span<const std::uint8_t> b,
           std::span<std::int32_t> c);

/// Portable reference kernel: exact for the full s8 weight range. The
/// bit-exactness oracle every catalog kernel is tested against, and the
/// execution fallback for 8-bit plans on hosts without a wide 8-bit
/// kernel.
void gemm_s8u8_bt_ref(int m, int n, int k, std::span<const std::int8_t> a,
                      std::span<const std::uint8_t> b,
                      std::span<std::int32_t> c);

/// AVX-512 VNNI kernel: vpdpbusd accumulates u8·s8 products straight
/// into int32, so the full 8-bit weight range is exact — no reduced-range
/// contract. Falls back to gemm_s8u8_bt_ref when the host lacks VNNI.
void gemm_s8u8_bt_vnni(int m, int n, int k, std::span<const std::int8_t> a,
                       std::span<const std::uint8_t> b,
                       std::span<std::int32_t> c);

/// q[i] = clamp(round(x[i] · inv_scale), −qmax, qmax). With
/// inv_scale == 0 (an all-zero source channel) every output is 0.
void quantize_s8(std::span<const float> x, float inv_scale, int qmax,
                 std::span<std::int8_t> q);

/// q[i] = clamp(round(x[i] · inv_scale) + 128, 0, 255) — u8 activation
/// quantization around the fixed zero point. AVX2 processes 32 floats
/// per iteration; the scalar tail rounds identically.
void quantize_u8(std::span<const float> x, float inv_scale,
                 std::span<std::uint8_t> q);

/// Byte-level im2col over an already-quantized image, emitting the patch
/// matrix transposed: `rows` receives oh·ow rows of `row_stride` bytes
/// (row_stride ≥ C·k·k), one patch per output position — exactly the Bᵀ
/// operand gemm_s8u8_bt wants. Padding samples inside [0, C·k·k) are the
/// zero point; the [C·k·k, row_stride) tail of a row is UNSPECIFIED (the
/// copy loop may spill into it), which a padded-k GEMM tolerates because
/// the matching weight pad bytes are zero. The fp32 cols matrix is never
/// materialized: the image is quantized once (quantize_u8) and patches
/// are gathered as bytes, 4× less traffic than an fp32 im2col.
void im2row_u8(const ConvGeom& g, std::span<const std::uint8_t> qimage,
               std::int64_t row_stride, std::span<std::uint8_t> rows);

} // namespace hs
