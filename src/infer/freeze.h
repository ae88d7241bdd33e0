#pragma once

// Freeze pass: compile a trained/pruned model into a flat, inference-only
// op list. This is the deployment counterpart of the training-oriented
// layer graph — the same role a TensorRT network build plays for GPU
// deployment (see DESIGN.md §8):
//
//  * every BatchNorm2d is folded into the preceding Conv2d's weights and
//    bias (y = γ·(Wx − μ)/σ + β  becomes  y = W'x + b'), so normalization
//    costs nothing at inference;
//  * elementwise ReLU (and the conv bias add) are fused into the producer
//    op, eliminating whole-tensor passes and intermediates;
//  * residual blocks are expanded into conv/add ops over three planned
//    buffer slots; blocks with gate 0 and an identity shortcut are
//    dropped entirely, and a non-unit gate is folded into the branch's
//    final conv;
//  * active Conv2d output masks (soft channel gates under evaluation) are
//    folded into the filter rows, matching the masked forward exactly;
//  * Flatten disappears (frozen activations are already flat); geometry
//    is resolved once for a fixed input shape, so the execution engine
//    never re-derives shapes on the hot path.
//
// The result is a FrozenModel: immutable weights plus the per-slot arena
// sizes an Engine needs to run with zero hot-path allocations. One
// FrozenModel is safely shared (read-only) by many Engines/threads.

#include <array>
#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace hs::infer {

/// Numeric plan of a FrozenModel. kFloat32 is what freeze() emits;
/// kInt8 plans come out of quantize() (quantize.h): conv/FC weights are
/// packed int8 with per-output-channel scales, activations are quantized
/// per tensor on entry to each conv/FC and dequantized (fused with bias
/// and ReLU) on exit, everything else stays fp32.
enum class Precision { kFloat32, kInt8 };

/// Frozen instruction kinds (see FrozenOp).
enum class OpKind {
    kConv,           ///< im2col + GEMM conv, bias folded in, optional ReLU
    kLinear,         ///< fully connected, optional ReLU
    kScale,          ///< per-channel affine (unfused BatchNorm), optional ReLU
    kMaxPool,        ///< square-window max pooling
    kGlobalAvgPool,  ///< [C, H, W] -> [C]
    kAdd,            ///< out = in + in2 (residual join), optional ReLU
};

/// Activation buffer slots referenced by FrozenOp::in/out. Two ping-pong
/// slots plus one side slot for the residual shortcut; at most one
/// residual join is in flight at a time in a feed-forward net, so three
/// slots suffice for every supported topology.
inline constexpr int kNumSlots = 3;

/// One frozen instruction. Weights are already in GEMM-ready layout:
/// conv weight is [F, C·k·k] (filter rows over flattened patches), linear
/// weight is [out, in]. Every conv/linear carries a bias (zeros when the
/// source layer had none and no BatchNorm was folded).
///
/// Shape-aware GEMM dispatch: the rank-1-update gemm() kernel vectorizes
/// over the output's spatial extent, which collapses for deep layers
/// (oh·ow of 4 or even 1 → a scalar inner loop). Since the plan knows
/// every shape, convs with oh·ow < F are compiled `transposed`: the
/// weight is packed [C·k·k, F] and the engine computes the output
/// transposed via gemm_at (inner loop over F, wide again), then restores
/// the channel-major layout while fusing the bias add and ReLU. Same
/// kernels, 8–30× faster on the deep VGG convs at batch 1.
struct FrozenOp {
    OpKind kind = OpKind::kConv;
    int in = 0;            ///< input slot
    int out = 0;           ///< output slot (kScale may write in place)
    int in2 = -1;          ///< second input slot (kAdd only)
    bool relu_after = false;
    bool transposed = false;  ///< kConv: weight is [C·k·k, F], use gemm_at

    Tensor weight;         ///< kConv [F, C·k·k] ([C·k·k, F] if transposed) / kLinear [out, in] / kScale gains [C]
    Tensor bias;           ///< kConv [F] / kLinear [out] / kScale offsets [C]
    ConvGeom geom;         ///< kConv / kMaxPool geometry (input-side)
    int out_channels = 0;  ///< kConv F / kLinear out / kScale·pool C

    Shape in_shape;        ///< per-image input shape
    Shape out_shape;       ///< per-image output shape
    std::int64_t in_elems = 0;   ///< product of in_shape
    std::int64_t out_elems = 0;  ///< product of out_shape

    // Int8 side data, populated by quantize() on kConv/kLinear ops of a
    // Precision::kInt8 plan (empty otherwise). qweight is always packed
    // in row-major [F, C·k·k] / [out, in] — the int8 dot-product kernel
    // has contiguous operands for every shape, so the fp32 deep-layer
    // `transposed` repack does not apply (the flag is ignored in int8).
    std::vector<std::int8_t> qweight;
    std::vector<float> qscale;  ///< per-output-channel weight scale
    float in_scale = 0.0f;      ///< dequant factor paired with qscale (see act_scales)

    /// Input activation quantization scales. One entry: per-tensor (linear
    /// ops; in_scale holds the same value and the engine dequantizes
    /// with qscale[f]·in_scale). geom.channels entries (conv only):
    /// per-input-channel — channel c quantizes with act_scales[c], the
    /// scales were folded into the weight rows before weight quantization
    /// (quantize.h), and in_scale is exactly 1 so the same epilogue
    /// applies.
    std::vector<float> act_scales;
    /// Tuner-chosen execution tactic for this op's GEMM (gemm_int8.h).
    /// Default (kAuto, 1-way) reproduces the pre-tuner heuristic
    /// dispatch; deserialized tactics are normalized onto this host's
    /// capabilities at load.
    QGemmTactic tactic;
};

/// A compiled model: flat op list + the memory plan for one image.
/// Immutable after freeze(); share via shared_ptr<const FrozenModel>.
struct FrozenModel {
    Precision precision = Precision::kFloat32;
    Shape input_chw;       ///< expected per-image input shape [C, H, W]
    Shape output_shape;    ///< per-image output shape (e.g. [classes])
    std::vector<FrozenOp> ops;
    int output_slot = 0;   ///< slot holding the final activation
    /// Per-image float capacity required of each slot (max over the ops
    /// reading/writing it). The engine scales these by its batch size.
    std::array<std::int64_t, kNumSlots> slot_elems{};
    std::int64_t cols_elems = 0;  ///< per-image im2col scratch (max over convs)
    std::int64_t tr_elems = 0;    ///< scratch for transposed conv outputs
    std::int64_t input_elems = 0; ///< product of input_chw
    std::int64_t output_elems = 0;
    std::int64_t macs = 0;        ///< multiply-accumulates per image
};

/// Compile `model` for the fixed per-image input shape [C, H, W]. Walks
/// Sequential containers recursively; supports Conv2d, BatchNorm2d, ReLU,
/// MaxPool2d, GlobalAvgPool, Flatten, Linear and ResidualBlock. Throws
/// hs::Error on any other layer kind or a geometry mismatch.
[[nodiscard]] FrozenModel freeze(const nn::Layer& model, const Shape& input_chw);

} // namespace hs::infer
