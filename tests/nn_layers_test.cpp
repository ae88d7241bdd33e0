// Unit tests for the nn layer zoo: forward semantics and gradient checks.
// Gradients are verified against central finite differences, the standard
// oracle for hand-written backward passes.

#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/rng.h"

namespace hs::nn {
namespace {

/// Scalar loss used by the gradient checker: L = Σ c_i · y_i with fixed
/// random coefficients, so dL/dy = c.
struct ProbeLoss {
    Tensor coeff;

    explicit ProbeLoss(const Shape& shape) : coeff(shape) {
        Rng rng(321);
        rng.fill_normal(coeff, 0.0, 1.0);
    }

    [[nodiscard]] double value(const Tensor& y) const {
        double acc = 0.0;
        auto c = coeff.data();
        auto v = y.data();
        for (std::size_t i = 0; i < v.size(); ++i)
            acc += static_cast<double>(c[i]) * v[i];
        return acc;
    }

    [[nodiscard]] Tensor grad() const { return coeff; }
};

/// Max relative error between analytic and numeric gradients of `layer`
/// w.r.t. both the input and every parameter.
double max_grad_error(Layer& layer, Tensor input, float eps = 1e-2f) {
    Tensor out = layer.forward(input, /*train=*/true);
    ProbeLoss probe(out.shape());
    layer.zero_grad();
    Tensor analytic_dx = layer.backward(probe.grad());

    double worst = 0.0;
    // Numeric probes must evaluate the same function the analytic backward
    // differentiates: the training-mode forward (BatchNorm's eval path uses
    // running statistics, a different function).
    auto check = [&](float* value, float analytic) {
        const float saved = *value;
        *value = saved + eps;
        const double up = probe.value(layer.forward(input, /*train=*/true));
        *value = saved - eps;
        const double down = probe.value(layer.forward(input, /*train=*/true));
        *value = saved;
        const double numeric = (up - down) / (2.0 * eps);
        const double err = std::fabs(numeric - analytic) /
                           std::max(1.0, std::max(std::fabs(numeric),
                                                  std::fabs(static_cast<double>(analytic))));
        worst = std::max(worst, err);
    };

    // Input gradient (probe a subset for speed).
    auto in = input.data();
    const std::int64_t stride_in = std::max<std::int64_t>(1, input.numel() / 17);
    for (std::int64_t i = 0; i < input.numel(); i += stride_in)
        check(&in[static_cast<std::size_t>(i)], analytic_dx[i]);

    // Parameter gradients.
    for (Param* p : layer.params()) {
        auto pv = p->value.data();
        const std::int64_t stride_p = std::max<std::int64_t>(1, p->value.numel() / 13);
        for (std::int64_t i = 0; i < p->value.numel(); i += stride_p)
            check(&pv[static_cast<std::size_t>(i)], p->grad[i]);
    }
    return worst;
}

Tensor random_input(Shape shape, std::uint64_t seed = 77) {
    Tensor t(std::move(shape));
    Rng rng(seed);
    rng.fill_normal(t, 0.0, 1.0);
    return t;
}

TEST(Conv2d, OutputShape) {
    Rng rng(1);
    Conv2d conv(3, 5, 3, 1, 1, true, rng);
    const Tensor y = conv.forward(random_input({2, 3, 8, 8}), false);
    EXPECT_EQ(y.shape(), (Shape{2, 5, 8, 8}));
    Conv2d strided(3, 4, 3, 2, 1, true, rng);
    EXPECT_EQ(strided.forward(random_input({1, 3, 8, 8}), false).shape(),
              (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, MatchesDirectConvolution) {
    Rng rng(2);
    Conv2d conv(2, 3, 3, 1, 1, true, rng);
    const Tensor x = random_input({1, 2, 5, 5});
    const Tensor y = conv.forward(x, false);
    // Direct convolution at a few positions.
    const auto& w = conv.weight().value;
    for (int f = 0; f < 3; ++f)
        for (int oy : {0, 2, 4})
            for (int ox : {1, 3}) {
                double acc = conv.bias().value[f];
                for (int c = 0; c < 2; ++c)
                    for (int ky = 0; ky < 3; ++ky)
                        for (int kx = 0; kx < 3; ++kx) {
                            const int iy = oy + ky - 1, ix = ox + kx - 1;
                            if (iy < 0 || iy >= 5 || ix < 0 || ix >= 5) continue;
                            acc += static_cast<double>(w.at(f, c, ky, kx)) *
                                   x.at(0, c, iy, ix);
                        }
                EXPECT_NEAR(y.at(0, f, oy, ox), acc, 1e-4);
            }
}

TEST(Conv2d, GradCheck) {
    Rng rng(3);
    Conv2d conv(2, 3, 3, 1, 1, true, rng);
    EXPECT_LT(max_grad_error(conv, random_input({2, 2, 5, 5})), 2e-2);
}

TEST(Conv2d, GradCheckStride2NoBias) {
    Rng rng(4);
    Conv2d conv(3, 2, 3, 2, 1, false, rng);
    EXPECT_LT(max_grad_error(conv, random_input({1, 3, 6, 6})), 2e-2);
}

TEST(Conv2d, OutputMaskZeroesChannels) {
    Rng rng(5);
    Conv2d conv(1, 4, 3, 1, 1, true, rng);
    const Tensor x = random_input({1, 1, 4, 4});
    std::vector<float> mask{1.0f, 0.0f, 1.0f, 0.0f};
    conv.set_output_mask(mask);
    const Tensor y = conv.forward(x, false);
    for (int h = 0; h < 4; ++h)
        for (int w2 = 0; w2 < 4; ++w2) {
            EXPECT_EQ(y.at(0, 1, h, w2), 0.0f);
            EXPECT_EQ(y.at(0, 3, h, w2), 0.0f);
        }
    conv.clear_output_mask();
    const Tensor y2 = conv.forward(x, false);
    double nonzero = 0.0;
    for (int h = 0; h < 4; ++h) nonzero += std::fabs(y2.at(0, 1, h, 0));
    EXPECT_GT(nonzero, 0.0);
}

TEST(Conv2d, MaskedForwardEqualsMaskedOutput) {
    Rng rng(6);
    Conv2d conv(2, 3, 3, 1, 1, true, rng);
    const Tensor x = random_input({2, 2, 5, 5});
    const Tensor full = conv.forward(x, false);
    std::vector<float> mask{0.0f, 1.0f, 1.0f};
    conv.set_output_mask(mask);
    const Tensor masked = conv.forward(x, false);
    for (int i = 0; i < 2; ++i)
        for (int f = 0; f < 3; ++f)
            for (int h = 0; h < 5; ++h)
                for (int w2 = 0; w2 < 5; ++w2)
                    EXPECT_FLOAT_EQ(masked.at(i, f, h, w2),
                                    mask[static_cast<std::size_t>(f)] *
                                        full.at(i, f, h, w2));
}

/// Bit-for-bit comparison of two float spans; reports the first mismatch.
void expect_bit_equal(std::span<const float> want, std::span<const float> got,
                      const std::string& what) {
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
            ADD_FAILURE() << what << " differs at " << i << ": " << want[i]
                          << " vs " << got[i];
            return;
        }
    }
}

/// A batched forward + backward must equal running the same conv one image
/// at a time bit for bit, whatever the image grouping of its GEMMs.
void expect_batch_matches_per_image(int size, int batch, bool masked) {
    const std::string what = std::to_string(size) + "x" + std::to_string(size) +
                             " batch " + std::to_string(batch) +
                             (masked ? " masked" : "");
    const int in_c = 16, out_c = 8;
    Rng rng(static_cast<std::uint64_t>(size * 100 + batch));
    Conv2d base(in_c, out_c, 3, 1, 1, true, rng);
    rng.fill_normal(base.bias().value, 0.0, 0.5);
    if (masked) {
        std::vector<float> mask(static_cast<std::size_t>(out_c), 1.0f);
        mask[1] = 0.0f;
        mask[4] = 0.5f;
        base.set_output_mask(mask);
    }
    const Tensor x = random_input({batch, in_c, size, size}, 11);
    const Tensor dy = random_input({batch, out_c, size, size}, 12);

    Conv2d whole = base;
    whole.zero_grad();
    const Tensor y = whole.forward(x, true);
    const Tensor dx = whole.backward(dy);

    Conv2d single = base;
    single.zero_grad();
    const std::int64_t in_chw = static_cast<std::int64_t>(in_c) * size * size;
    const std::int64_t out_chw = static_cast<std::int64_t>(out_c) * size * size;
    for (int i = 0; i < batch; ++i) {
        auto slice = [i](const Tensor& t, std::int64_t chw, int channels, int hw) {
            const auto d = t.data().subspan(static_cast<std::size_t>(i * chw),
                                            static_cast<std::size_t>(chw));
            return Tensor({1, channels, hw, hw}, {d.begin(), d.end()});
        };
        const Tensor yi = single.forward(slice(x, in_chw, in_c, size), true);
        const Tensor dxi = single.backward(slice(dy, out_chw, out_c, size));
        expect_bit_equal(y.data().subspan(static_cast<std::size_t>(i * out_chw),
                                          static_cast<std::size_t>(out_chw)),
                         yi.data(), what + " output, image " + std::to_string(i));
        expect_bit_equal(dx.data().subspan(static_cast<std::size_t>(i * in_chw),
                                           static_cast<std::size_t>(in_chw)),
                         dxi.data(), what + " grad_input, image " + std::to_string(i));
    }
    expect_bit_equal(whole.weight().grad.data(), single.weight().grad.data(),
                     what + " weight grad");
    expect_bit_equal(whole.bias().grad.data(), single.bias().grad.data(),
                     what + " bias grad");
}

TEST(Conv2d, BatchedGemmsBitEqualPerImage) {
    // Output maps from 1×1 (256 images per GEMM) to 16×16 (one per GEMM);
    // odd batches leave a partial last group.
    for (const int size : {1, 2, 4, 8, 16})
        for (const int batch : {7, 37})
            for (const bool masked : {false, true})
                expect_batch_matches_per_image(size, batch, masked);
}

TEST(Conv2d, ReplaceParametersShrinks) {
    Rng rng(7);
    Conv2d conv(4, 6, 3, 1, 1, true, rng);
    Tensor w({3, 2, 3, 3});
    Tensor b({3});
    conv.replace_parameters(w, b);
    EXPECT_EQ(conv.out_channels(), 3);
    EXPECT_EQ(conv.in_channels(), 2);
    const Tensor y = conv.forward(random_input({1, 2, 4, 4}), false);
    EXPECT_EQ(y.shape(), (Shape{1, 3, 4, 4}));
}

TEST(Linear, ForwardMatchesManual) {
    Rng rng(8);
    Linear fc(3, 2, rng);
    Tensor x({1, 3});
    x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f;
    const Tensor y = fc.forward(x, false);
    for (int j = 0; j < 2; ++j) {
        double acc = fc.bias().value[j];
        for (int i = 0; i < 3; ++i)
            acc += static_cast<double>(fc.weight().value.at(j, i)) * x[i];
        EXPECT_NEAR(y.at(0, j), acc, 1e-5);
    }
}

TEST(Linear, GradCheck) {
    Rng rng(9);
    Linear fc(5, 4, rng);
    EXPECT_LT(max_grad_error(fc, random_input({3, 5})), 2e-2);
}

TEST(ReLU, ForwardAndGradCheck) {
    ReLU relu;
    Tensor x({4});
    x[0] = -1.0f; x[1] = 0.5f; x[2] = 0.0f; x[3] = 2.0f;
    const Tensor y = relu.forward(x, false);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.5f);
    EXPECT_EQ(y[3], 2.0f);
    EXPECT_LT(max_grad_error(relu, random_input({2, 3, 4, 4}), 1e-3f), 2e-2);
}

TEST(Sigmoid, ForwardAndGradCheck) {
    Sigmoid sig;
    Tensor x({1});
    x[0] = 0.0f;
    EXPECT_FLOAT_EQ(sig.forward(x, false)[0], 0.5f);
    EXPECT_LT(max_grad_error(sig, random_input({5})), 2e-2);
}

TEST(MaxPool2d, ForwardPicksMax) {
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 5; x[2] = 3; x[3] = 2;
    const Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.numel(), 1);
    EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, GradRoutesToArgmax) {
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2});
    x[0] = 1; x[1] = 5; x[2] = 3; x[3] = 2;
    (void)pool.forward(x, true);
    Tensor g({1, 1, 1, 1});
    g[0] = 7.0f;
    const Tensor dx = pool.backward(g);
    EXPECT_FLOAT_EQ(dx[1], 7.0f);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(GlobalAvgPool, ForwardAndGradCheck) {
    GlobalAvgPool pool;
    Tensor x = random_input({2, 3, 4, 4});
    const Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 3, 1, 1}));
    double manual = 0.0;
    for (int h = 0; h < 4; ++h)
        for (int w2 = 0; w2 < 4; ++w2) manual += x.at(0, 1, h, w2);
    EXPECT_NEAR(y.at(0, 1, 0, 0), manual / 16.0, 1e-5);
    EXPECT_LT(max_grad_error(pool, x, 1e-3f), 2e-2);
}

TEST(Flatten, RoundTrip) {
    Flatten flat;
    Tensor x = random_input({2, 3, 2, 2});
    const Tensor y = flat.forward(x, true);
    EXPECT_EQ(y.shape(), (Shape{2, 12}));
    const Tensor dx = flat.backward(y);
    EXPECT_TRUE(dx.equals(x.reshape({2, 3, 2, 2})));
}

TEST(BatchNorm2d, NormalizesBatch) {
    BatchNorm2d bn(3);
    Tensor x = random_input({8, 3, 4, 4});
    const Tensor y = bn.forward(x, true);
    // Per-channel mean ≈ 0, var ≈ 1 in training mode (gamma=1, beta=0).
    for (int c = 0; c < 3; ++c) {
        double mean = 0.0, var = 0.0;
        for (int i = 0; i < 8; ++i)
            for (int h = 0; h < 4; ++h)
                for (int w2 = 0; w2 < 4; ++w2) mean += y.at(i, c, h, w2);
        mean /= 8 * 16;
        for (int i = 0; i < 8; ++i)
            for (int h = 0; h < 4; ++h)
                for (int w2 = 0; w2 < 4; ++w2) {
                    const double d = y.at(i, c, h, w2) - mean;
                    var += d * d;
                }
        var /= 8 * 16;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
    BatchNorm2d bn(2);
    Tensor x = random_input({16, 2, 2, 2});
    for (int i = 0; i < 50; ++i) (void)bn.forward(x, true);
    const Tensor y_eval = bn.forward(x, false);
    const Tensor y_train = bn.forward(x, true);
    EXPECT_TRUE(y_eval.allclose(y_train, 0.2f)); // converged running stats
}

TEST(BatchNorm2d, GradCheck) {
    BatchNorm2d bn(2);
    EXPECT_LT(max_grad_error(bn, random_input({4, 2, 3, 3})), 3e-2);
}

TEST(BatchNorm2d, KeepChannels) {
    BatchNorm2d bn(4);
    bn.gamma().value[2] = 5.0f;
    const std::vector<int> keep{0, 2};
    bn.keep_channels(keep);
    EXPECT_EQ(bn.channels(), 2);
    EXPECT_FLOAT_EQ(bn.gamma().value[1], 5.0f);
}

TEST(Sequential, ForwardBackwardChains) {
    Rng rng(10);
    Sequential net;
    net.emplace<Linear>(4, 8, rng);
    net.emplace<ReLU>();
    net.emplace<Linear>(8, 3, rng);
    EXPECT_EQ(net.size(), 3);
    EXPECT_LT(max_grad_error(net, random_input({2, 4})), 2e-2);
}

TEST(Sequential, DeepCopyIsIndependent) {
    Rng rng(11);
    Sequential net;
    net.emplace<Linear>(3, 3, rng);
    Sequential copy = net;
    copy.layer_as<Linear>(0).weight().value.fill(0.0f);
    EXPECT_GT(net.layer_as<Linear>(0).weight().value.abs_max(), 0.0f);
}

TEST(Sequential, InsertErase) {
    Rng rng(12);
    Sequential net;
    net.emplace<Linear>(2, 2, rng);
    net.insert(0, std::make_unique<ReLU>());
    EXPECT_EQ(net.layer(0).kind(), "relu");
    net.erase(0);
    EXPECT_EQ(net.layer(0).kind(), "linear");
    EXPECT_THROW(net.erase(5), Error);
}

TEST(Sequential, FindAllRecurses) {
    Rng rng(13);
    auto inner = std::make_unique<Sequential>();
    inner->emplace<Conv2d>(1, 2, 3, 1, 1, true, rng);
    Sequential net;
    net.emplace<Conv2d>(1, 1, 3, 1, 1, true, rng);
    net.add(std::move(inner));
    EXPECT_EQ(net.find_all<Conv2d>().size(), 2u);
}

TEST(ResidualBlock, IdentityShapePreserved) {
    Rng rng(14);
    ResidualBlock block(4, 4, 1, rng);
    EXPECT_FALSE(block.has_projection());
    const Tensor y = block.forward(random_input({2, 4, 6, 6}), false);
    EXPECT_EQ(y.shape(), (Shape{2, 4, 6, 6}));
}

TEST(ResidualBlock, ProjectionChangesShape) {
    Rng rng(15);
    ResidualBlock block(4, 8, 2, rng);
    EXPECT_TRUE(block.has_projection());
    const Tensor y = block.forward(random_input({2, 4, 6, 6}), false);
    EXPECT_EQ(y.shape(), (Shape{2, 8, 3, 3}));
}

TEST(ResidualBlock, GateZeroIsPassthroughAtEval) {
    Rng rng(16);
    ResidualBlock block(4, 4, 1, rng);
    block.set_gate(0.0f);
    EXPECT_TRUE(block.is_passthrough());
    const Tensor x = random_input({1, 4, 5, 5});
    const Tensor y = block.forward(x, false);
    EXPECT_TRUE(y.equals(x));
}

TEST(ResidualBlock, GradCheckIdentity) {
    Rng rng(17);
    ResidualBlock block(3, 3, 1, rng);
    EXPECT_LT(max_grad_error(block, random_input({2, 3, 4, 4})), 3e-2);
}

TEST(ResidualBlock, GradCheckProjection) {
    // Stride-2 output is 3x3: enough elements per BN channel for the
    // finite-difference oracle (batch statistics have high curvature).
    Rng rng(18);
    ResidualBlock block(2, 4, 2, rng);
    EXPECT_LT(max_grad_error(block, random_input({4, 2, 6, 6}), 5e-3f), 3e-2);
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsLoss) {
    SoftmaxCrossEntropy loss;
    Tensor logits({2, 4}); // all zero → uniform softmax
    const std::vector<int> labels{1, 3};
    EXPECT_NEAR(loss.forward(logits, labels), std::log(4.0), 1e-5);
}

TEST(SoftmaxCrossEntropyTest, GradSumsToZeroPerRow) {
    SoftmaxCrossEntropy loss;
    Tensor logits = random_input({3, 5});
    const std::vector<int> labels{0, 2, 4};
    (void)loss.forward(logits, labels);
    const Tensor g = loss.grad();
    for (int i = 0; i < 3; ++i) {
        double row = 0.0;
        for (int j = 0; j < 5; ++j) row += g.at(i, j);
        EXPECT_NEAR(row, 0.0, 1e-6);
    }
}

TEST(SoftmaxCrossEntropyTest, GradCheckAgainstNumeric) {
    SoftmaxCrossEntropy loss;
    Tensor logits = random_input({2, 3});
    const std::vector<int> labels{1, 2};
    (void)loss.forward(logits, labels);
    const Tensor g = loss.grad();
    const float eps = 1e-3f;
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        Tensor up = logits, down = logits;
        up[i] += eps;
        down[i] -= eps;
        SoftmaxCrossEntropy probe;
        const double numeric =
            (probe.forward(up, labels) - probe.forward(down, labels)) / (2 * eps);
        EXPECT_NEAR(g[i], numeric, 1e-3);
    }
}

TEST(AccuracyTest, CountsArgmaxMatches) {
    Tensor logits({2, 3});
    logits.at(0, 2) = 5.0f; // pred 2
    logits.at(1, 0) = 5.0f; // pred 0
    EXPECT_DOUBLE_EQ(accuracy(logits, std::vector<int>{2, 1}), 0.5);
}

TEST(SoftmaxTest, RowsSumToOne) {
    const Tensor p = softmax(random_input({4, 7}));
    for (int i = 0; i < 4; ++i) {
        double row = 0.0;
        for (int j = 0; j < 7; ++j) row += p.at(i, j);
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

} // namespace
} // namespace hs::nn
