#pragma once

// Post-training quantization of a frozen plan (DESIGN.md §10, §14).
// Takes the fp32 FrozenModel that freeze() produced plus a small
// calibration batch, and compiles a Precision::kInt8 twin:
//
//  * conv/FC weights get per-output-channel symmetric scales
//    (s_w[f] = max|row_f| / qmax) and are packed row-major int8,
//    GEMM-ready. qmax is 127 when the plan can run a full-range kernel
//    (VNNI host) and 63 otherwise — the maddubs reduced-range
//    contract in tensor/gemm_int8.h. A transposed deep-layer conv
//    (freeze.h) is repacked back to filter rows: the int8 dot-product
//    kernel is shape-oblivious, so the fp32 repack trick has no int8
//    counterpart.
//  * the calibration batch runs once through the fp32 plan, recording
//    max|x| of every op's input activation. Conv inputs are quantized
//    per input channel: channel c gets s_c = max|x_c| / 127 (floored at
//    kChanScaleFloor of the per-tensor scale), and s_c is folded into
//    the weight columns (w̃[f,c,·] = w[f,c,·]·s_c) BEFORE weight
//    quantization, so the engine's dequant factor stays a
//    single per-filter multiply (FrozenOp::in_scale == 1). That recovers
//    the fidelity a shared per-tensor scale loses when channel dynamic
//    ranges differ by orders of magnitude (the committed-baseline VGG
//    argmax-agreement gap). Linears use one per-tensor scale:
//    s_x = max|x| / 127. Inputs outside the calibrated range saturate —
//    use a representative batch.
//  * every conv/FC GEMM shape is handed to the freeze-time Tuner
//    (tuner.h), which times the applicable kernel/tiling/batch-stacking
//    candidates and records the winner in FrozenOp::tactic — serialized
//    with the plan (HSWT v5).
//  * fp32 conv/FC weights are dropped from the returned plan (the int8
//    engine never reads them); biases and every non-GEMM op stay fp32.
//
// An all-zero output channel quantizes to scale 0 / all-zero rows and
// dequantizes back to exactly bias[f] — no special casing anywhere.
//
// The result runs on the same Engine/ServingEngine as an fp32 plan; the
// engine dispatches per op on FrozenModel::precision.

#include "infer/freeze.h"
#include "infer/tuner.h"
#include "tensor/tensor.h"

namespace hs::infer {

/// Floor on a conv input channel's activation scale as a fraction of the
/// op's per-tensor scale. A raw per-channel scheme fails two ways on
/// channels whose calibration max is far below the tensor max: eval
/// values above the tight channel max saturate, and folding a tiny s_c
/// into the weights spreads the folded row's dynamic range so its int8
/// quantization gets coarser for everyone else. Clamping
/// s_c >= floor · s_tensor caps both losses; 1.0 would degenerate to the
/// per-tensor scheme, 0.0 to the unclamped per-channel scheme. 0.5 (≤2x
/// per-channel resolution differential) measured best overall on the
/// bench_infer fidelity suite.
inline constexpr float kChanScaleFloor = 0.5f;

struct QuantizeOptions {
    /// Tactic selection: the serving batch the plan is tuned for and an
    /// optional injected cost model (tuner.h).
    TunerConfig tuner;
};

/// Quantize `model` (must be Precision::kFloat32) using `calibration`
/// ([N, C, H, W], shape matching model.input_chw, N ≥ 1) to set the
/// activation scales. Throws hs::Error on shape mismatch or if `model`
/// is already quantized.
[[nodiscard]] FrozenModel quantize(const FrozenModel& model,
                                   const Tensor& calibration,
                                   const QuantizeOptions& opts = {});

} // namespace hs::infer
