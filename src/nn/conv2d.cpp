#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"

namespace hs::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_({out_channels, in_channels, kernel, kernel}, "conv.weight"),
      bias_(bias ? Param({out_channels}, "conv.bias") : Param()) {
    require(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
                pad >= 0,
            "invalid Conv2d geometry");
    // He-normal: std = sqrt(2 / fan_in), standard for ReLU networks.
    const double fan_in = static_cast<double>(in_channels) * kernel * kernel;
    rng.fill_normal(weight_.value, 0.0, std::sqrt(2.0 / fan_in));
}

ConvGeom Conv2d::geom_for(const Tensor& input) const {
    require(input.rank() == 4, "Conv2d expects NCHW input");
    require(input.dim(1) == in_channels_,
            "Conv2d channel mismatch: expected " + std::to_string(in_channels_) +
                " got " + std::to_string(input.dim(1)));
    ConvGeom g;
    g.channels = in_channels_;
    g.height = input.dim(2);
    g.width = input.dim(3);
    g.kernel = kernel_;
    g.stride = stride_;
    g.pad = pad_;
    return g;
}

namespace {

// Every conv GEMM sees at least this many columns: images are grouped so
// that small late-layer maps (4 or 1 output pixels) still feed the GEMM a
// wide, vectorizable row instead of one tiny product per image.
constexpr std::int64_t kMinGemmCols = 256;

int image_group(int n, std::int64_t ohw) {
    return static_cast<int>(
        std::min<std::int64_t>(n, (kMinGemmCols + ohw - 1) / ohw));
}

// A group's matrices are image-major along their columns: image g of the
// group owns columns [g·ohw, (g+1)·ohw) of every row. These copy one
// image's rows×ohw block into or out of that slot of a rows×(gn·ohw) matrix.
void pack_image(const float* src, float* group, std::int64_t rows,
                std::int64_t ohw, int g, int gn) {
    for (std::int64_t r = 0; r < rows; ++r)
        std::memcpy(group + (r * gn + g) * ohw, src + r * ohw,
                    static_cast<std::size_t>(ohw) * sizeof(float));
}

void unpack_image(const float* group, float* dst, std::int64_t rows,
                  std::int64_t ohw, int g, int gn) {
    for (std::int64_t r = 0; r < rows; ++r)
        std::memcpy(dst + r * ohw, group + (r * gn + g) * ohw,
                    static_cast<std::size_t>(ohw) * sizeof(float));
}

} // namespace

// Batching images into one GEMM is bit-exact: every output element still
// sums over the same K terms in the same order; only the column count of
// the product changes. A group of one image is the plain per-image loop.
Tensor Conv2d::forward(const Tensor& input, bool train) {
    const ConvGeom g = geom_for(input);
    const int n = input.dim(0);
    const int oh = g.out_h();
    const int ow = g.out_w();
    const std::int64_t ckk = g.col_rows();
    const std::int64_t ohw = g.col_cols();
    const int group = image_group(n, ohw);

    Tensor output({n, out_channels_, oh, ow});
    if (cols_scratch_.numel() < ckk * ohw * group)
        cols_scratch_ = Tensor({static_cast<int>(ckk), static_cast<int>(ohw * group)});
    std::vector<float> image_cols(group > 1 ? static_cast<std::size_t>(ckk * ohw) : 0);
    std::vector<float> group_out(
        group > 1 ? static_cast<std::size_t>(out_channels_ * ohw * group) : 0);

    const std::int64_t in_chw = static_cast<std::int64_t>(in_channels_) * g.height * g.width;
    const std::int64_t out_chw = static_cast<std::int64_t>(out_channels_) * oh * ow;
    const auto in = input.data();
    const auto out = output.data();

    for (int i0 = 0; i0 < n; i0 += group) {
        const int gn = std::min(group, n - i0);
        for (int j = 0; j < gn; ++j) {
            const auto image = in.subspan(static_cast<std::size_t>((i0 + j) * in_chw),
                                          static_cast<std::size_t>(in_chw));
            if (gn == 1) {
                im2col(g, image, cols_scratch_.data());
            } else {
                im2col(g, image, image_cols);
                pack_image(image_cols.data(), cols_scratch_.data().data(), ckk, ohw,
                           j, gn);
            }
        }
        const auto y = gn == 1 ? out.subspan(static_cast<std::size_t>(i0 * out_chw),
                                             static_cast<std::size_t>(out_chw))
                               : std::span<float>(group_out);
        gemm(out_channels_, static_cast<int>(ohw * gn), static_cast<int>(ckk), 1.0f,
             weight_.value.data(), cols_scratch_.data(), 0.0f, y);
        if (gn > 1) {
            for (int j = 0; j < gn; ++j)
                unpack_image(group_out.data(), out.data() + (i0 + j) * out_chw,
                             out_channels_, ohw, j, gn);
        }
    }

    if (has_bias_) {
        for (int i = 0; i < n; ++i)
            for (int f = 0; f < out_channels_; ++f) {
                const float b = bias_.value[f];
                float* row = out.data() + i * out_chw +
                             static_cast<std::int64_t>(f) * ohw;
                for (std::int64_t j = 0; j < ohw; ++j) row[j] += b;
            }
    }

    if (collect_stats_) stats_output_ = output; // pre-mask activations

    if (mask_) {
        const auto& m = *mask_;
        for (int i = 0; i < n; ++i)
            for (int f = 0; f < out_channels_; ++f) {
                const float s = m[static_cast<std::size_t>(f)];
                if (s == 1.0f) continue;
                float* row = out.data() + i * out_chw +
                             static_cast<std::int64_t>(f) * ohw;
                for (std::int64_t j = 0; j < ohw; ++j) row[j] *= s;
            }
    }

    if (train) {
        cached_input_ = input;
        cached_geom_ = g;
    }
    return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    require(cached_input_.numel() > 0,
            "Conv2d::backward without a training forward");
    const ConvGeom& g = cached_geom_;
    const int n = cached_input_.dim(0);
    const int oh = g.out_h();
    const int ow = g.out_w();
    const std::int64_t ckk = g.col_rows();
    const std::int64_t ohw = g.col_cols();
    const std::int64_t in_chw = static_cast<std::int64_t>(in_channels_) * g.height * g.width;
    const std::int64_t out_chw = static_cast<std::int64_t>(out_channels_) * oh * ow;
    const int group = image_group(n, ohw);

    require(grad_output.rank() == 4 && grad_output.dim(0) == n &&
                grad_output.dim(1) == out_channels_ && grad_output.dim(2) == oh &&
                grad_output.dim(3) == ow,
            "Conv2d::backward gradient shape mismatch");

    if (collect_stats_) stats_grad_ = grad_output;

    // Apply the output mask to the incoming gradient (chain rule through
    // the gating multiply).
    Tensor grad = grad_output;
    if (mask_) {
        auto gd = grad.data();
        const auto& m = *mask_;
        for (int i = 0; i < n; ++i)
            for (int f = 0; f < out_channels_; ++f) {
                const float s = m[static_cast<std::size_t>(f)];
                if (s == 1.0f) continue;
                float* row = gd.data() + i * out_chw +
                             static_cast<std::int64_t>(f) * ohw;
                for (std::int64_t j = 0; j < ohw; ++j) row[j] *= s;
            }
    }

    Tensor grad_input({n, in_channels_, g.height, g.width});
    std::vector<float> dcols(static_cast<std::size_t>(ckk * ohw * group));
    std::vector<float> group_dy(
        group > 1 ? static_cast<std::size_t>(out_channels_ * ohw * group) : 0);
    std::vector<float> image_dcols(group > 1 ? static_cast<std::size_t>(ckk * ohw) : 0);
    const auto gd = grad.data();

    for (int i0 = 0; i0 < n; i0 += group) {
        const int gn = std::min(group, n - i0);
        if (gn > 1) {
            for (int j = 0; j < gn; ++j)
                pack_image(gd.data() + (i0 + j) * out_chw, group_dy.data(),
                           out_channels_, ohw, j, gn);
        }
        const auto dy = gn == 1 ? gd.subspan(static_cast<std::size_t>(i0 * out_chw),
                                             static_cast<std::size_t>(out_chw))
                                : std::span<float>(group_dy);
        // dcols = Wᵀ(CKK×F) · dY(F×gn·OHW), the whole group at once
        gemm_at(static_cast<int>(ckk), static_cast<int>(ohw * gn), out_channels_, 1.0f,
                weight_.value.data(), dy, 0.0f, dcols);

        for (int j = 0; j < gn; ++j) {
            const int i = i0 + j;
            // Recompute cols for this image (memory over speed tradeoff).
            im2col(g, cached_input_.data().subspan(
                          static_cast<std::size_t>(i * in_chw),
                          static_cast<std::size_t>(in_chw)),
                   cols_scratch_.data());
            // dW += dY(F×OHW) · colsᵀ(OHW×CKK), per image and in image
            // order: each weight's gradient is one OHW-long dot product
            // per image, summed into dW image by image, with the rounding
            // gemm_bt pins (gemm.h). gemm_bt packs cols' rows itself, so
            // they stay in im2col layout here.
            gemm_bt(out_channels_, static_cast<int>(ckk), static_cast<int>(ohw), 1.0f,
                    gd.subspan(static_cast<std::size_t>(i * out_chw),
                               static_cast<std::size_t>(out_chw)),
                    cols_scratch_.data(), 1.0f, weight_.grad.data());
            if (gn > 1) unpack_image(dcols.data(), image_dcols.data(), ckk, ohw, j, gn);
            col2im(g, gn == 1 ? std::span<const float>(dcols) : image_dcols,
                   grad_input.data().subspan(static_cast<std::size_t>(i * in_chw),
                                             static_cast<std::size_t>(in_chw)));
        }
    }

    if (has_bias_) {
        for (int i = 0; i < n; ++i)
            for (int f = 0; f < out_channels_; ++f) {
                const float* row = gd.data() + i * out_chw +
                                   static_cast<std::int64_t>(f) * ohw;
                double acc = 0.0;
                for (std::int64_t j = 0; j < ohw; ++j) acc += row[j];
                bias_.grad[f] += static_cast<float>(acc);
            }
    }

    return grad_input;
}

std::vector<Param*> Conv2d::params() {
    std::vector<Param*> out{&weight_};
    if (has_bias_) out.push_back(&bias_);
    return out;
}

std::unique_ptr<Layer> Conv2d::clone() const {
    return std::make_unique<Conv2d>(*this);
}

void Conv2d::set_output_mask(std::span<const float> mask) {
    if (mask.empty()) {
        mask_.reset();
        return;
    }
    require(static_cast<int>(mask.size()) == out_channels_,
            "mask size must equal out_channels");
    mask_.emplace(mask.begin(), mask.end());
}

std::span<const float> Conv2d::output_mask() const {
    require(mask_.has_value(), "no output mask set");
    return {mask_->data(), mask_->size()};
}

void Conv2d::replace_parameters(Tensor new_weight, std::optional<Tensor> new_bias) {
    require(new_weight.rank() == 4 && new_weight.dim(2) == kernel_ &&
                new_weight.dim(3) == kernel_,
            "replacement weight must be [F', C', k, k] with the same kernel");
    require(has_bias_ == new_bias.has_value(),
            "bias presence cannot change during surgery");
    out_channels_ = new_weight.dim(0);
    in_channels_ = new_weight.dim(1);
    if (new_bias) {
        require(new_bias->rank() == 1 && new_bias->dim(0) == out_channels_,
                "replacement bias must be [F']");
        bias_.reset(std::move(*new_bias));
    }
    weight_.reset(std::move(new_weight));
    mask_.reset();
    cached_input_ = Tensor();
    cols_scratch_ = Tensor();
}

} // namespace hs::nn
