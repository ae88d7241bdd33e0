#pragma once

// 2-D convolution layer (square kernels) lowered onto im2col + GEMM.
// Images are grouped so each GEMM sees at least 256 columns (one GEMM per
// image on large maps, many images per GEMM on 2×2 or 1×1 maps); the
// result is bit-equal to one GEMM per image.
//
// Pruning hooks:
//  * set_output_mask() multiplies output channels by a 0/1 (or soft) gate —
//    this is how HeadStart and AutoPruner *evaluate* candidate prunings
//    without mutating weights.
//  * weight()/bias() expose the Params so pruning::surgery can physically
//    shrink the filter bank (drop output filters / input channels).

#include <optional>

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

namespace hs::nn {

/// Convolution over NCHW batches: weight [F, C, k, k], optional bias [F].
class Conv2d : public Layer {
public:
    /// He-normal initialized conv layer.
    Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
           bool bias, Rng& rng);

    [[nodiscard]] Tensor forward(const Tensor& input, bool train) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Param*> params() override;
    [[nodiscard]] std::string kind() const override { return "conv"; }
    [[nodiscard]] std::unique_ptr<Layer> clone() const override;

    [[nodiscard]] int in_channels() const { return in_channels_; }
    [[nodiscard]] int out_channels() const { return out_channels_; }
    [[nodiscard]] int kernel() const { return kernel_; }
    [[nodiscard]] int stride() const { return stride_; }
    [[nodiscard]] int pad() const { return pad_; }
    [[nodiscard]] bool has_bias() const { return has_bias_; }

    [[nodiscard]] Param& weight() { return weight_; }
    [[nodiscard]] const Param& weight() const { return weight_; }
    [[nodiscard]] Param& bias() { return bias_; }
    [[nodiscard]] const Param& bias() const { return bias_; }

    /// Gate output channels: `mask` has out_channels() entries; empty span
    /// clears the mask. Values are multiplied into the output feature maps
    /// (and the matching gradient in backward), so a 0 simulates pruning.
    void set_output_mask(std::span<const float> mask);
    /// Remove any active output mask.
    void clear_output_mask() { mask_.reset(); }
    [[nodiscard]] bool has_output_mask() const { return mask_.has_value(); }
    [[nodiscard]] std::span<const float> output_mask() const;

    /// Replace weight/bias with pruned tensors and update the geometry.
    /// `new_weight` must be [F', C', k, k]; bias (if present) must be [F'].
    void replace_parameters(Tensor new_weight, std::optional<Tensor> new_bias);

    /// Mean activation output per channel from the most recent forward in
    /// stats-collection mode (used by APoZ/entropy metrics); see
    /// set_collect_stats().
    void set_collect_stats(bool on) { collect_stats_ = on; }
    /// Raw (pre-mask) output of the last stats-enabled forward.
    [[nodiscard]] const Tensor& last_output() const { return stats_output_; }

    /// Input of the most recent forward(train=true) call (ThiNet needs the
    /// consumer layer's input to compute reconstruction errors).
    [[nodiscard]] const Tensor& last_input() const { return cached_input_; }

    /// Gradient w.r.t. this conv's output from the last stats-enabled
    /// backward (the Taylor-expansion pruning criterion needs act·grad).
    [[nodiscard]] const Tensor& last_output_grad() const { return stats_grad_; }

private:
    int in_channels_;
    int out_channels_;
    int kernel_;
    int stride_;
    int pad_;
    bool has_bias_;
    Param weight_;
    Param bias_;
    std::optional<std::vector<float>> mask_;

    bool collect_stats_ = false;
    Tensor stats_output_;
    Tensor stats_grad_;

    // backward caches
    Tensor cached_input_;
    ConvGeom cached_geom_;
    Tensor cols_scratch_; // reused im2col buffer

    [[nodiscard]] ConvGeom geom_for(const Tensor& input) const;
};

} // namespace hs::nn
