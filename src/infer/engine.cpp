#include "infer/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace hs::infer {
namespace {

void relu_inplace(float* data, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i)
        if (data[i] < 0.0f) data[i] = 0.0f;
}

const char* kind_str(OpKind kind) {
    switch (kind) {
    case OpKind::kConv: return "conv";
    case OpKind::kLinear: return "linear";
    case OpKind::kScale: return "scale";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kGlobalAvgPool: return "gavgpool";
    case OpKind::kAdd: return "add";
    }
    return "unknown";
}

/// Static profile facts of one op under the model's precision plan.
LayerProfile make_profile(const FrozenOp& op, Precision precision, int idx) {
    LayerProfile lp;
    char name[32];
    std::snprintf(name, sizeof(name), "op%02d_%s", idx, kind_str(op.kind));
    lp.name = name;
    lp.kind = kind_str(op.kind);

    const bool gemm_op =
        op.kind == OpKind::kConv || op.kind == OpKind::kLinear;
    if (op.kind == OpKind::kConv)
        lp.macs = static_cast<std::int64_t>(op.out_channels) *
                  op.geom.col_rows() * op.geom.col_cols();
    else if (op.kind == OpKind::kLinear)
        lp.macs = static_cast<std::int64_t>(op.out_channels) * op.in_elems;

    const std::int64_t f32 = static_cast<std::int64_t>(sizeof(float));
    if (gemm_op && precision == Precision::kInt8) {
        lp.weight_bytes = static_cast<std::int64_t>(op.qweight.size()) +
                          static_cast<std::int64_t>(op.qscale.size() +
                                                    op.act_scales.size()) *
                              f32 +
                          op.bias.numel() * f32;
        // fp32 input read + u8 quantized write, fp32 output write.
        lp.act_bytes = 5 * op.in_elems + 4 * op.out_elems;
    } else {
        lp.weight_bytes = (op.weight.numel() + op.bias.numel()) * f32;
        lp.act_bytes = (op.in_elems + op.out_elems) * f32;
        if (op.in2 >= 0) lp.act_bytes += op.in_elems * f32; // residual join
    }
    return lp;
}

} // namespace

Engine::Engine(std::shared_ptr<const FrozenModel> model, int max_batch)
    : model_(std::move(model)), max_batch_(max_batch) {
    require(model_ != nullptr, "Engine needs a frozen model");
    require(max_batch_ >= 1, "Engine max_batch must be >= 1");
    std::int64_t off = 0;
    for (int s = 0; s < kNumSlots; ++s) {
        slot_off_[static_cast<std::size_t>(s)] = off;
        off += model_->slot_elems[static_cast<std::size_t>(s)] * max_batch_;
    }
    cols_off_ = off;
    off += model_->cols_elems;
    tr_off_ = off;
    off += model_->tr_elems;
    // Int8 plan: size the quantized-operand (u8) and accumulator (s32)
    // scratch for the widest conv (per image) / FC (whole batch) op.
    std::int64_t q_elems = 0;
    std::int64_t acc_elems = 0;
    if (model_->precision == Precision::kInt8) {
        for (const FrozenOp& op : model_->ops) {
            if (op.kind == OpKind::kConv) {
                // Quantized image + padded patch rows (exec_conv_q). A
                // batch-stacking tactic gathers every image's patch rows
                // before one wide GEMM, so its scratch scales with
                // max_batch; the image buffer itself is reused per image.
                const std::int64_t stack =
                    op.tactic.batch_stack ? max_batch_ : 1;
                const std::int64_t patch =
                    op.in_elems + padded_k(op.geom.col_rows()) *
                                      op.geom.col_cols() * stack;
                const std::int64_t acc =
                    static_cast<std::int64_t>(op.out_channels) *
                    op.geom.col_cols() * stack;
                if (patch > q_elems) q_elems = patch;
                if (acc > acc_elems) acc_elems = acc;
            } else if (op.kind == OpKind::kLinear) {
                const std::int64_t in = padded_k(op.in_elems) * max_batch_;
                const std::int64_t acc =
                    static_cast<std::int64_t>(op.out_channels) * max_batch_;
                if (in > q_elems) q_elems = in;
                if (acc > acc_elems) acc_elems = acc;
            }
        }
    }
    // The arena is the engine's only allocation; an injected failure here
    // stands in for OOM at engine bring-up (e.g. a watchdog respawn on a
    // memory-starved host).
    require(!fault::should_fail("engine.alloc"),
            "injected fault: engine arena allocation of " +
                std::to_string(off * static_cast<std::int64_t>(sizeof(float))) +
                " bytes failed");
    arena_.assign(static_cast<std::size_t>(off), 0.0f);
    qarena_.assign(static_cast<std::size_t>(q_elems), 0);
    iarena_.assign(static_cast<std::size_t>(acc_elems), 0);

    profile_.reserve(model_->ops.size());
    int idx = 0;
    for (const FrozenOp& op : model_->ops)
        profile_.push_back(make_profile(op, model_->precision, idx++));
}

void Engine::reset_profile() {
    for (LayerProfile& lp : profile_) {
        lp.calls = 0;
        lp.images = 0;
        lp.total_ns = 0;
    }
}

Tensor Engine::run(const Tensor& input) {
    require(input.rank() == 4, "Engine expects NCHW input");
    const Shape& chw = model_->input_chw;
    require(input.dim(1) == chw[0] && input.dim(2) == chw[1] &&
                input.dim(3) == chw[2],
            "Engine input shape mismatch: expected [N, " + shape_str(chw) +
                "], got " + shape_str(input.shape()));
    const int n = input.dim(0);
    Shape out_shape{n};
    out_shape.insert(out_shape.end(), model_->output_shape.begin(),
                     model_->output_shape.end());
    Tensor output(out_shape);
    run(input.data(), n, output.data());
    return output;
}

void Engine::run(std::span<const float> input, int batch,
                 std::span<float> output) {
    require(batch >= 1 && batch <= max_batch_,
            "Engine batch must be in [1, max_batch]");
    require(static_cast<std::int64_t>(input.size()) ==
                model_->input_elems * batch,
            "Engine input span size mismatch");
    require(static_cast<std::int64_t>(output.size()) ==
                model_->output_elems * batch,
            "Engine output span size mismatch");

    const bool prof = obs::enabled();
    const std::int64_t t0 = prof ? monotonic_ns() : 0;
    std::memcpy(slot(0), input.data(), input.size() * sizeof(float));
    exec_ops(batch, nullptr);
    std::memcpy(output.data(), slot(model_->output_slot),
                output.size() * sizeof(float));
    if (prof) {
        obs::observe_hdr_us("engine.run_us", (monotonic_ns() - t0) / 1000);
        obs::count("engine.images", batch);
        obs::count("engine.batches");
    }
}

void Engine::run_calibrate(
    const Tensor& input, std::vector<float>& op_in_maxabs,
    std::vector<std::vector<float>>& op_in_chan_maxabs) {
    require(model_->precision == Precision::kFloat32,
            "run_calibrate needs the fp32 plan (calibration precedes "
            "quantization)");
    require(input.rank() == 4, "run_calibrate expects NCHW input");
    const int batch = input.dim(0);
    require(batch >= 1 && batch <= max_batch_,
            "run_calibrate batch must be in [1, max_batch]");
    require(input.numel() == model_->input_elems * batch,
            "run_calibrate input shape mismatch");
    op_in_maxabs.resize(model_->ops.size(), 0.0f);
    op_in_chan_maxabs.resize(model_->ops.size());
    std::memcpy(slot(0), input.data().data(),
                static_cast<std::size_t>(input.numel()) * sizeof(float));
    exec_ops(batch, op_in_maxabs.data(), &op_in_chan_maxabs);
}

void Engine::exec_ops(int batch, float* op_in_maxabs,
                      std::vector<std::vector<float>>* op_in_chan_maxabs) {
    const bool int8 = model_->precision == Precision::kInt8;
    // One relaxed load for the whole plan: per-op timing costs two clock
    // reads per op only while obs is on.
    const bool prof = obs::enabled();
    std::size_t idx = 0;
    for (const FrozenOp& op : model_->ops) {
        if (op_in_maxabs != nullptr) {
            const float* src = slot(op.in);
            const std::int64_t n =
                static_cast<std::int64_t>(batch) * op.in_elems;
            float m = op_in_maxabs[idx];
            for (std::int64_t i = 0; i < n; ++i) {
                const float a = src[i] < 0.0f ? -src[i] : src[i];
                if (a > m) m = a;
            }
            op_in_maxabs[idx] = m;
            // Per-input-channel maxima (conv only): the raw material for
            // per-channel activation scales (quantize.h).
            if (op_in_chan_maxabs != nullptr && op.kind == OpKind::kConv &&
                op.geom.channels > 0) {
                std::vector<float>& chan = (*op_in_chan_maxabs)[idx];
                const int ch = op.geom.channels;
                if (chan.empty()) chan.assign(static_cast<std::size_t>(ch),
                                              0.0f);
                const std::int64_t plane = op.in_elems / ch;
                for (int b = 0; b < batch; ++b)
                    for (int ci = 0; ci < ch; ++ci) {
                        const float* p = src +
                                         static_cast<std::int64_t>(b) *
                                             op.in_elems +
                                         ci * plane;
                        float cm = chan[static_cast<std::size_t>(ci)];
                        for (std::int64_t j = 0; j < plane; ++j) {
                            const float a = p[j] < 0.0f ? -p[j] : p[j];
                            if (a > cm) cm = a;
                        }
                        chan[static_cast<std::size_t>(ci)] = cm;
                    }
            }
        }
        const std::int64_t t0 = prof ? monotonic_ns() : 0;
        switch (op.kind) {
        case OpKind::kConv:
            int8 ? exec_conv_q(op, batch) : exec_conv(op, batch);
            break;
        case OpKind::kLinear:
            int8 ? exec_linear_q(op, batch) : exec_linear(op, batch);
            break;
        case OpKind::kScale: exec_scale(op, batch); break;
        case OpKind::kMaxPool: exec_maxpool(op, batch); break;
        case OpKind::kGlobalAvgPool: exec_gavgpool(op, batch); break;
        case OpKind::kAdd: exec_add(op, batch); break;
        }
        if (prof) {
            LayerProfile& lp = profile_[idx];
            lp.total_ns += monotonic_ns() - t0;
            lp.calls += 1;
            lp.images += batch;
        }
        ++idx;
    }
}

void Engine::exec_conv(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    float* cols = arena_.data() + cols_off_;
    const ConvGeom& g = op.geom;
    const std::int64_t ckk = g.col_rows();
    const std::int64_t ohw = g.col_cols();
    const int f = op.out_channels;
    const auto bias = op.bias.data();

    for (int i = 0; i < batch; ++i) {
        const float* image = in + static_cast<std::int64_t>(i) * op.in_elems;
        float* dst = out + static_cast<std::int64_t>(i) * op.out_elems;
        im2col(g, {image, static_cast<std::size_t>(op.in_elems)},
               {cols, static_cast<std::size_t>(ckk * ohw)});
        if (op.transposed) {
            // Deep-layer path (see freeze.h): compute the output
            // transposed ([oh·ow, F] = colsᵀ · Wᵀ) so the kernel's inner
            // loop runs over F, then restore channel-major layout with
            // the bias add and ReLU fused into the copy.
            float* tr = arena_.data() + tr_off_;
            gemm_at(static_cast<int>(ohw), f, static_cast<int>(ckk), 1.0f,
                    {cols, static_cast<std::size_t>(ckk * ohw)},
                    op.weight.data(), 0.0f,
                    {tr, static_cast<std::size_t>(f * ohw)});
            for (int r = 0; r < f; ++r) {
                float* drow = dst + static_cast<std::int64_t>(r) * ohw;
                const float b = bias[r];
                if (op.relu_after)
                    for (std::int64_t j = 0; j < ohw; ++j)
                        drow[j] = std::max(0.0f, tr[j * f + r] + b);
                else
                    for (std::int64_t j = 0; j < ohw; ++j)
                        drow[j] = tr[j * f + r] + b;
            }
        } else {
            // Pre-fill each filter row with its folded bias; the GEMM
            // accumulates onto it (beta = 1), fusing the bias add.
            for (int r = 0; r < f; ++r)
                std::fill_n(dst + static_cast<std::int64_t>(r) * ohw, ohw,
                            bias[r]);
            gemm(f, static_cast<int>(ohw), static_cast<int>(ckk), 1.0f,
                 op.weight.data(), {cols, static_cast<std::size_t>(ckk * ohw)},
                 1.0f, {dst, static_cast<std::size_t>(op.out_elems)});
        }
    }
    if (op.relu_after && !op.transposed)
        relu_inplace(out, static_cast<std::int64_t>(batch) * op.out_elems);
}

void Engine::exec_conv_q(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const ConvGeom& g = op.geom;
    const std::int64_t ckk = g.col_rows();
    const std::int64_t ohw = g.col_cols();
    const int f = op.out_channels;
    const auto bias = op.bias.data();
    const std::int64_t k_pad = padded_k(ckk);
    std::uint8_t* qimg = qarena_.data();
    std::uint8_t* qrows = qimg + op.in_elems;
    std::int32_t* acc = iarena_.data();

    // Quantize one image into qimg. Per-channel plans (act_scales ==
    // geom.channels entries) quantize each input plane with its own
    // scale — the matching weight fold happened at quantize() time, so
    // the dequant factor below stays qscale[f]·in_scale (in_scale == 1).
    // Per-tensor ops quantize the whole image with act_scales[0]
    // (== in_scale).
    const std::size_t n_as = op.act_scales.size();
    const bool per_chan =
        n_as > 1 && n_as == static_cast<std::size_t>(g.channels);
    const std::int64_t plane = g.channels > 0 ? op.in_elems / g.channels : 0;
    const float inv_in = op.in_scale > 0.0f ? 1.0f / op.in_scale : 0.0f;
    const auto quantize_image = [&](const float* image) {
        if (per_chan) {
            for (int c = 0; c < g.channels; ++c) {
                const float s = op.act_scales[static_cast<std::size_t>(c)];
                quantize_u8({image + c * plane,
                             static_cast<std::size_t>(plane)},
                            s > 0.0f ? 1.0f / s : 0.0f,
                            {qimg + c * plane,
                             static_cast<std::size_t>(plane)});
            }
        } else {
            const float inv =
                n_as == 1 ? (op.act_scales[0] > 0.0f
                                 ? 1.0f / op.act_scales[0]
                                 : 0.0f)
                          : inv_in;
            quantize_u8({image, static_cast<std::size_t>(op.in_elems)}, inv,
                        {qimg, static_cast<std::size_t>(op.in_elems)});
        }
    };

    if (op.tactic.batch_stack && batch > 1) {
        // Batch-stacked tactic: gather every image's padded patch rows
        // into one [batch·oh·ow, k_pad] operand and run a single wide
        // GEMM — per-call fixed costs (row corrections, tile ramp-up,
        // dispatch) amortize across the batch.
        for (int i = 0; i < batch; ++i) {
            quantize_image(in + static_cast<std::int64_t>(i) * op.in_elems);
            im2row_u8(g, {qimg, static_cast<std::size_t>(op.in_elems)},
                      k_pad,
                      {qrows + static_cast<std::int64_t>(i) * k_pad * ohw,
                       static_cast<std::size_t>(k_pad * ohw)});
        }
        const std::int64_t cols = static_cast<std::int64_t>(batch) * ohw;
        qgemm(op.tactic, f, static_cast<int>(cols), static_cast<int>(k_pad),
              {op.qweight.data(), op.qweight.size()},
              {qrows, static_cast<std::size_t>(k_pad * cols)},
              {acc, static_cast<std::size_t>(f * cols)});
        for (int r = 0; r < f; ++r) {
            const float s =
                op.qscale[static_cast<std::size_t>(r)] * op.in_scale;
            const float b = bias[r];
            const std::int32_t* arow = acc + r * cols;
            for (int i = 0; i < batch; ++i) {
                const std::int32_t* asub = arow + i * ohw;
                float* drow = out +
                              static_cast<std::int64_t>(i) * op.out_elems +
                              static_cast<std::int64_t>(r) * ohw;
                if (op.relu_after)
                    for (std::int64_t j = 0; j < ohw; ++j)
                        drow[j] = std::max(
                            0.0f, s * static_cast<float>(asub[j]) + b);
                else
                    for (std::int64_t j = 0; j < ohw; ++j)
                        drow[j] = s * static_cast<float>(asub[j]) + b;
            }
        }
        return;
    }

    for (int i = 0; i < batch; ++i) {
        const float* image = in + static_cast<std::int64_t>(i) * op.in_elems;
        float* dst = out + static_cast<std::int64_t>(i) * op.out_elems;
        // Quantize the image once, then gather padded byte patch rows
        // ([oh·ow, k_pad]) — the Bᵀ operand of the fused GEMM. Rows are
        // padded with the zero point so the kernel never runs a k-tail.
        quantize_image(image);
        im2row_u8(g, {qimg, static_cast<std::size_t>(op.in_elems)}, k_pad,
                  {qrows, static_cast<std::size_t>(k_pad * ohw)});
        qgemm(op.tactic, f, static_cast<int>(ohw), static_cast<int>(k_pad),
              {op.qweight.data(), op.qweight.size()},
              {qrows, static_cast<std::size_t>(k_pad * ohw)},
              {acc, static_cast<std::size_t>(f * ohw)});
        // Fused requantize epilogue: one pass writes fp32 + bias + ReLU.
        for (int r = 0; r < f; ++r) {
            const float s = op.qscale[static_cast<std::size_t>(r)] *
                            op.in_scale;
            const float b = bias[r];
            const std::int32_t* arow =
                acc + static_cast<std::int64_t>(r) * ohw;
            float* drow = dst + static_cast<std::int64_t>(r) * ohw;
            if (op.relu_after)
                for (std::int64_t j = 0; j < ohw; ++j)
                    drow[j] = std::max(
                        0.0f, s * static_cast<float>(arow[j]) + b);
            else
                for (std::int64_t j = 0; j < ohw; ++j)
                    drow[j] = s * static_cast<float>(arow[j]) + b;
        }
    }
}

void Engine::exec_linear(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const int in_f = static_cast<int>(op.in_elems);
    const int out_f = op.out_channels;
    const auto bias = op.bias.data();
    for (int i = 0; i < batch; ++i)
        std::memcpy(out + static_cast<std::int64_t>(i) * out_f, bias.data(),
                    static_cast<std::size_t>(out_f) * sizeof(float));
    gemm_bt(batch, out_f, in_f, 1.0f,
            {in, static_cast<std::size_t>(batch) * in_f}, op.weight.data(),
            1.0f, {out, static_cast<std::size_t>(batch) * out_f});
    if (op.relu_after)
        relu_inplace(out, static_cast<std::int64_t>(batch) * out_f);
}

void Engine::exec_linear_q(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const int in_f = static_cast<int>(op.in_elems);
    const int out_f = op.out_channels;
    const auto bias = op.bias.data();
    const float inv_in = op.in_scale > 0.0f ? 1.0f / op.in_scale : 0.0f;
    std::uint8_t* qin = qarena_.data();
    std::int32_t* acc = iarena_.data();

    // Quantize each input row at the padded stride. The pad bytes are
    // left untouched: the matching weight pad is zero, so they cannot
    // contribute to any product.
    const std::int64_t in_pad = padded_k(in_f);
    if (in_pad == in_f) {
        const std::size_t total = static_cast<std::size_t>(batch) *
                                  static_cast<std::size_t>(in_f);
        quantize_u8({in, total}, inv_in, {qin, total});
    } else {
        for (int i = 0; i < batch; ++i)
            quantize_u8({in + static_cast<std::int64_t>(i) * in_f,
                         static_cast<std::size_t>(in_f)},
                        inv_in,
                        {qin + static_cast<std::int64_t>(i) * in_pad,
                         static_cast<std::size_t>(in_f)});
    }
    // acc is [out_f, batch] (the kernel's natural layout); the epilogue
    // restores [batch, out_f] while dequantizing.
    qgemm(op.tactic, out_f, batch, static_cast<int>(in_pad),
          {op.qweight.data(), op.qweight.size()},
          {qin, static_cast<std::size_t>(batch) *
                    static_cast<std::size_t>(in_pad)},
          {acc, static_cast<std::size_t>(out_f) *
                    static_cast<std::size_t>(batch)});
    for (int r = 0; r < out_f; ++r) {
        const float s = op.qscale[static_cast<std::size_t>(r)] * op.in_scale;
        const float b = bias[r];
        for (int i = 0; i < batch; ++i) {
            const float v =
                s * static_cast<float>(
                        acc[static_cast<std::int64_t>(r) * batch + i]) +
                b;
            out[static_cast<std::int64_t>(i) * out_f + r] =
                op.relu_after ? std::max(0.0f, v) : v;
        }
    }
}

void Engine::exec_scale(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const int c = op.out_channels;
    const std::int64_t hw = op.out_elems / c;
    const auto gain = op.weight.data();
    const auto bias = op.bias.data();
    for (int i = 0; i < batch; ++i)
        for (int ch = 0; ch < c; ++ch) {
            const float a = gain[ch];
            const float b = bias[ch];
            const std::int64_t base =
                static_cast<std::int64_t>(i) * op.out_elems + ch * hw;
            const float* src = in + base;
            float* dst = out + base;
            if (op.relu_after)
                for (std::int64_t j = 0; j < hw; ++j)
                    dst[j] = std::max(0.0f, a * src[j] + b);
            else
                for (std::int64_t j = 0; j < hw; ++j) dst[j] = a * src[j] + b;
        }
}

void Engine::exec_maxpool(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const ConvGeom& g = op.geom;
    const int c = op.out_channels;
    const int oh = g.out_h();
    const int ow = g.out_w();
    const std::int64_t in_hw = static_cast<std::int64_t>(g.height) * g.width;

    for (int i = 0; i < batch; ++i) {
        float* dst = out + static_cast<std::int64_t>(i) * op.out_elems;
        for (int ch = 0; ch < c; ++ch) {
            const float* plane =
                in + static_cast<std::int64_t>(i) * op.in_elems + ch * in_hw;
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    float best = -std::numeric_limits<float>::infinity();
                    for (int ky = 0; ky < g.kernel; ++ky) {
                        const float* row =
                            plane +
                            static_cast<std::int64_t>(oy * g.stride + ky) *
                                g.width +
                            ox * g.stride;
                        for (int kx = 0; kx < g.kernel; ++kx)
                            if (row[kx] > best) best = row[kx];
                    }
                    *dst++ = best;
                }
        }
    }
    if (op.relu_after)
        relu_inplace(out, static_cast<std::int64_t>(batch) * op.out_elems);
}

void Engine::exec_gavgpool(const FrozenOp& op, int batch) {
    const float* in = slot(op.in);
    float* out = slot(op.out);
    const int c = op.out_channels;
    const std::int64_t hw = op.in_elems / c;
    for (int i = 0; i < batch; ++i)
        for (int ch = 0; ch < c; ++ch) {
            const float* plane =
                in + static_cast<std::int64_t>(i) * op.in_elems + ch * hw;
            double acc = 0.0;
            for (std::int64_t j = 0; j < hw; ++j) acc += plane[j];
            const float v = static_cast<float>(acc / static_cast<double>(hw));
            out[static_cast<std::int64_t>(i) * c + ch] =
                op.relu_after ? std::max(0.0f, v) : v;
        }
}

void Engine::exec_add(const FrozenOp& op, int batch) {
    const float* a = slot(op.in);
    const float* b = slot(op.in2);
    float* out = slot(op.out);
    const std::int64_t n = static_cast<std::int64_t>(batch) * op.out_elems;
    if (op.relu_after)
        for (std::int64_t i = 0; i < n; ++i)
            out[i] = std::max(0.0f, a[i] + b[i]);
    else
        for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

} // namespace hs::infer
