#pragma once

// Frozen-model execution engine with planned memory. Construction lays
// out one arena for the whole run: three activation slots (sized to the
// widest op that touches them, times max_batch) plus a single im2col
// scratch region — so run() performs zero heap allocations on the hot
// path. Convolution bias is pre-filled into the output rows and the GEMM
// accumulates onto it (beta = 1), and ReLU is applied in place where the
// freeze pass fused it; the OpenMP GEMM kernels are untouched.
//
// A Precision::kInt8 plan (quantize.h) swaps the conv/FC inner loops for
// the int8 kernels in tensor/gemm_int8.h: the input activation is
// quantized to u8 (fused with the patch extraction for convs), multiplied
// against the packed int8 weights with int32 accumulation, and the
// requantize/dequantize + bias + ReLU epilogue writes fp32 straight back
// into the activation slot — no extra passes. The planner sizes two
// additional scratch regions for that path (quantized operand bytes and
// int32 accumulators); every other op runs fp32 unchanged.
//
// An Engine is cheap (one arena) but stateful: use one Engine per thread.
// The FrozenModel behind it is immutable and safely shared.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "infer/freeze.h"
#include "tensor/tensor.h"

namespace hs::infer {

/// Per-op execution profile of one Engine: the raw material for roofline
/// reporting. Static facts (macs, bytes) are filled at construction from
/// the plan; dynamic ones (calls, images, wall time) accumulate in
/// exec_ops while obs is enabled. An Engine is per-thread, so these are
/// plain counters — snapshot via layer_profile().
///
/// Byte accounting is the roofline convention, not a cache simulation:
/// weights + input + output traffic once per image; im2col/accumulator
/// scratch (which mostly stays in cache) is excluded.
struct LayerProfile {
    std::string name;  ///< "op03_conv", in plan order
    std::string kind;  ///< "conv" | "linear" | "scale" | ...
    std::int64_t macs = 0;          ///< multiply-accumulates per image
    std::int64_t weight_bytes = 0;  ///< weight + bias (+scales) footprint
    std::int64_t act_bytes = 0;     ///< input + output traffic per image
    std::int64_t calls = 0;         ///< exec invocations (one per batch)
    std::int64_t images = 0;        ///< total images processed
    std::int64_t total_ns = 0;      ///< wall time across all calls
};

/// Executes a FrozenModel for batches up to a fixed max size.
class Engine {
public:
    /// Plan the arena for `max_batch` images of model->input_chw.
    Engine(std::shared_ptr<const FrozenModel> model, int max_batch = 1);

    [[nodiscard]] const FrozenModel& model() const { return *model_; }
    [[nodiscard]] int max_batch() const { return max_batch_; }
    /// Arena footprint in bytes (activations + im2col scratch + the int8
    /// quantized-operand and int32 accumulator scratch of an int8 plan).
    [[nodiscard]] std::int64_t arena_bytes() const {
        return static_cast<std::int64_t>(arena_.size()) *
                   static_cast<std::int64_t>(sizeof(float)) +
               static_cast<std::int64_t>(qarena_.size()) +
               static_cast<std::int64_t>(iarena_.size()) *
                   static_cast<std::int64_t>(sizeof(std::int32_t));
    }

    /// Run a batch: input is [N, C, H, W] with N <= max_batch(); returns
    /// [N, ...output_shape]. Allocates only the returned tensor.
    [[nodiscard]] Tensor run(const Tensor& input);

    /// Zero-allocation variant over raw spans: `input` holds batch·C·H·W
    /// floats, `output` receives batch·output_elems floats.
    void run(std::span<const float> input, int batch, std::span<float> output);

    /// Calibration pass (quantize.h): run [N, C, H, W] through the plan
    /// and fold the max-abs of every op's input activation into
    /// `op_in_maxabs` (one entry per model op, taking the running max so
    /// several batches can be folded in). `op_in_chan_maxabs` receives,
    /// for each conv op, the per-input-channel max-abs (geom.channels
    /// entries; other op kinds get an empty row) — the raw material for
    /// per-channel activation scales. The output is discarded.
    void run_calibrate(const Tensor& input, std::vector<float>& op_in_maxabs,
                       std::vector<std::vector<float>>& op_in_chan_maxabs);

    /// Per-op profile rows (plan order). calls/images/total_ns only
    /// accumulate while obs::enabled() — with obs off the hot loop pays
    /// one relaxed load per op.
    [[nodiscard]] const std::vector<LayerProfile>& layer_profile() const {
        return profile_;
    }
    /// Zero the dynamic profile fields (keeps the static macs/bytes).
    void reset_profile();

private:
    std::shared_ptr<const FrozenModel> model_;
    int max_batch_;
    std::vector<float> arena_;
    std::vector<std::uint8_t> qarena_;  ///< int8 plan: quantized operand
    std::vector<std::int32_t> iarena_;  ///< int8 plan: int32 accumulators
    std::array<std::int64_t, kNumSlots> slot_off_{};
    std::int64_t cols_off_ = 0;
    std::int64_t tr_off_ = 0;
    std::vector<LayerProfile> profile_;

    [[nodiscard]] float* slot(int s) {
        return arena_.data() + slot_off_[static_cast<std::size_t>(s)];
    }

    void exec_ops(int batch, float* op_in_maxabs,
                  std::vector<std::vector<float>>* op_in_chan_maxabs =
                      nullptr);
    void exec_conv(const FrozenOp& op, int batch);
    void exec_conv_q(const FrozenOp& op, int batch);
    void exec_linear(const FrozenOp& op, int batch);
    void exec_linear_q(const FrozenOp& op, int batch);
    void exec_scale(const FrozenOp& op, int batch);
    void exec_maxpool(const FrozenOp& op, int batch);
    void exec_gavgpool(const FrozenOp& op, int batch);
    void exec_add(const FrozenOp& op, int batch);
};

} // namespace hs::infer
