#include "infer/quantize.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "infer/engine.h"
#include "tensor/gemm_int8.h"
#include "util/error.h"

namespace hs::infer {

FrozenModel quantize(const FrozenModel& model, const Tensor& calibration,
                     const QuantizeOptions& opts) {
    require(model.precision == Precision::kFloat32,
            "quantize: model is already int8");
    require(calibration.rank() == 4 && calibration.dim(0) >= 1,
            "quantize: calibration batch must be [N, C, H, W] with N >= 1");
    const Shape& chw = model.input_chw;
    require(calibration.dim(1) == chw[0] && calibration.dim(2) == chw[1] &&
                calibration.dim(3) == chw[2],
            "quantize: calibration shape mismatch: expected [N, " +
                shape_str(chw) + "], got " + shape_str(calibration.shape()));

    // Activation-scale calibration: one fp32 pass recording per-op input
    // max-abs (and per-channel maxima for conv inputs). The engine is
    // temporary; its arena dies with this scope.
    std::vector<float> op_in_maxabs;
    std::vector<std::vector<float>> op_in_chan_maxabs;
    {
        auto fp32 = std::make_shared<const FrozenModel>(model);
        Engine engine(fp32, calibration.dim(0));
        engine.run_calibrate(calibration, op_in_maxabs, op_in_chan_maxabs);
    }

    // Full 8-bit weights need a kernel whose accumulation is exact for
    // them; the tuner then commits a tactic saying so.
    const int wbits = cpu_supports_vnni() ? 8 : 7;
    const int qmax = wbits == 8 ? kWeightQMaxFull : kWeightQMax;
    Tuner tuner(opts.tuner);

    FrozenModel q = model;
    q.precision = Precision::kInt8;
    q.tr_elems = 0;  // the fp32 transposed-conv scratch has no int8 use
    for (std::size_t i = 0; i < q.ops.size(); ++i) {
        FrozenOp& op = q.ops[i];
        if (op.kind != OpKind::kConv && op.kind != OpKind::kLinear) continue;

        const int f = op.out_channels;
        const bool is_conv = op.kind == OpKind::kConv;
        const std::int64_t cols =
            is_conv ? op.geom.col_rows() : op.in_elems;
        // Per-channel activation scales (conv only): channel c of the
        // input quantizes with s_c; folding s_c into the weight columns
        // below makes the dequant factor qscale[f] alone (in_scale = 1).
        const bool per_chan = is_conv && op.geom.channels > 0 &&
                              !op_in_chan_maxabs[i].empty();
        if (per_chan) {
            // Clamp each channel scale to kChanScaleFloor of the
            // per-tensor scale (see quantize.h: unclamped channel scales
            // trade saturation and folded-weight range spread for the
            // resolution win, and lose on balance).
            const std::vector<float>& chan = op_in_chan_maxabs[i];
            const float floor_max = op_in_maxabs[i] * kChanScaleFloor;
            op.act_scales.resize(chan.size());
            for (std::size_t c = 0; c < chan.size(); ++c)
                op.act_scales[c] = std::max(chan[c], floor_max) /
                                   static_cast<float>(kActQMax);
            op.in_scale = 1.0f;
        } else {
            op.in_scale = op_in_maxabs[i] / static_cast<float>(kActQMax);
            op.act_scales.assign(1, op.in_scale);
        }
        // Rows are padded to the kernel's byte alignment with zero
        // weights, so the GEMM over padded activations never runs a
        // scalar k-tail (gemm_int8.h).
        const std::int64_t k_pad = padded_k(cols);
        const auto w = op.weight.data();
        op.qweight.assign(static_cast<std::size_t>(f) *
                              static_cast<std::size_t>(k_pad),
                          0);
        op.qscale.resize(static_cast<std::size_t>(f));
        const std::int64_t kk2 =
            is_conv ? static_cast<std::int64_t>(op.geom.kernel) *
                          op.geom.kernel
                    : 0;
        std::vector<float> row(static_cast<std::size_t>(cols));
        for (int r = 0; r < f; ++r) {
            // Transposed convs store the weight [C·k·k, F]; regather the
            // filter row so qweight is uniformly [F, C·k·k]. The fold
            // multiplies column j (input channel j / k²) by that
            // channel's activation scale.
            for (std::int64_t j = 0; j < cols; ++j) {
                float v = op.transposed
                              ? w[static_cast<std::size_t>(j * f + r)]
                              : w[static_cast<std::size_t>(r * cols + j)];
                if (per_chan)
                    v *= op.act_scales[static_cast<std::size_t>(j / kk2)];
                row[static_cast<std::size_t>(j)] = v;
            }
            float maxw = 0.0f;
            for (const float v : row) maxw = std::max(maxw, std::fabs(v));
            const float scale = maxw / static_cast<float>(qmax);
            op.qscale[static_cast<std::size_t>(r)] = scale;
            quantize_s8({row.data(), row.size()},
                        scale > 0.0f ? 1.0f / scale : 0.0f, qmax,
                        {op.qweight.data() +
                             static_cast<std::size_t>(r) *
                                 static_cast<std::size_t>(k_pad),
                         static_cast<std::size_t>(cols)});
        }
        // Tactic selection: measure the applicable kernel/tiling/
        // stacking candidates for this GEMM shape and commit the winner.
        op.tactic = is_conv ? tuner.pick(f, op.geom.col_cols(), k_pad,
                                         wbits, /*can_stack=*/true)
                            : tuner.pick(f, opts.tuner.target_batch, k_pad,
                                         wbits, /*can_stack=*/false);
        op.weight = Tensor();      // int8 engine never reads fp32 weights
        op.transposed = false;     // qweight is row-major filter rows
    }
    return q;
}

} // namespace hs::infer
