// Int8 quantized inference: quantize() + the engine's kInt8 plan must
// track the fp32 frozen path closely (argmax agreement, bounded logit
// error) on VGG and ResNet; the v5 frozen-model container must round-trip
// both precisions bit-exactly and reject corruption and pre-tuner v4
// files with located errors;
// and a ServingEngine must serve an int8 plan through the existing
// batching/shedding/tracing machinery unchanged.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "tensor/gemm_int8.h"
#include "tensor/rng.h"
#include "util/error.h"
#include "util/fsio.h"

namespace hs::infer {
namespace {

Tensor random_batch(int n, int c, int s, std::uint64_t seed) {
    Tensor t({n, c, s, s});
    Rng rng(seed);
    rng.fill_normal(t, 0.0, 1.0);
    return t;
}

int argmax_row(std::span<const float> row) {
    return static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
}

// Quantization quality gate shared by the model tests: per-image argmax
// agreement and logit error bounded relative to the fp32 logit range.
// The bounds encode the default scheme's expected fidelity (per-channel
// weight scales, floored per-input-channel activation scales, 8-bit
// weights on VNNI hosts / 7-bit elsewhere) with slack for the random
// tiny models used here — wide enough to hold on both weight widths,
// tight enough that a wrong scale anywhere (errors of the full output
// range) still fails.
void expect_int8_tracks_fp32(const FrozenModel& fp32_model, int classes,
                             int channels, int input_size,
                             std::uint64_t seed, double min_agreement,
                             float max_rel_err) {
    auto fp32 = std::make_shared<const FrozenModel>(fp32_model);
    const Tensor calib = random_batch(8, channels, input_size, seed);
    auto int8 =
        std::make_shared<const FrozenModel>(quantize(*fp32, calib));
    EXPECT_EQ(Precision::kInt8, int8->precision);

    constexpr int kEval = 32;
    const Tensor x = random_batch(kEval, channels, input_size, seed + 1);
    Engine fe(fp32, kEval);
    Engine qe(int8, kEval);
    const Tensor want = fe.run(x);
    const Tensor got = qe.run(x);
    ASSERT_EQ(want.shape(), got.shape());

    float out_maxabs = 0.0f;
    for (const float v : want.data())
        out_maxabs = std::max(out_maxabs, std::fabs(v));
    int agree = 0;
    float max_err = 0.0f;
    for (int i = 0; i < kEval; ++i) {
        const auto wrow = want.data().subspan(
            static_cast<std::size_t>(i * classes),
            static_cast<std::size_t>(classes));
        const auto grow = got.data().subspan(
            static_cast<std::size_t>(i * classes),
            static_cast<std::size_t>(classes));
        if (argmax_row(wrow) == argmax_row(grow)) ++agree;
        for (int j = 0; j < classes; ++j)
            max_err = std::max(max_err, std::fabs(wrow[j] - grow[j]));
    }
    EXPECT_GE(agree, static_cast<int>(min_agreement * kEval))
        << "int8 argmax agreed on only " << agree << "/" << kEval
        << " images (seed " << seed << ")";
    EXPECT_LE(max_err, max_rel_err * out_maxabs)
        << "int8 logit error " << max_err << " vs fp32 range " << out_maxabs
        << " (seed " << seed << ")";
}

TEST(Quantize, VggInt8TracksFp32) {
    for (const std::uint64_t seed : {1u, 2u}) {
        models::VggConfig cfg;
        cfg.seed = 300 + seed;
        auto model = models::make_vgg16(cfg);
        const FrozenModel fp32 =
            freeze(model.net, {3, cfg.input_size, cfg.input_size});
        // The untrained 16-layer VGG squeezes its logits into a ±0.1
        // band, so per-tensor activation error is a larger fraction of
        // the output range than on ResNet; 0.2 still catches a wrong
        // scale anywhere (that shows up as errors of the full range).
        expect_int8_tracks_fp32(fp32, cfg.num_classes, 3, cfg.input_size,
                                seed, 0.9, 0.2f);
    }
}

TEST(Quantize, ResNetInt8TracksFp32) {
    models::ResNetConfig cfg;
    cfg.blocks_per_group = {2, 2, 2};
    cfg.seed = 77;
    auto model = models::make_resnet(cfg);
    // Move BN stats off their init so folding is non-trivial.
    for (int i = 0; i < 3; ++i)
        (void)model.net.forward(
            random_batch(4, 3, cfg.input_size, 500 + static_cast<std::uint64_t>(i)),
            /*train=*/true);
    model.net.zero_grad();
    const FrozenModel fp32 =
        freeze(model.net, {3, cfg.input_size, cfg.input_size});
    // Gaussian eval inputs step outside the 8-image calibration range
    // more often per channel than per tensor, so the floored per-channel
    // scheme trades a little worst-case logit error (~0.06 of range
    // here) for its resolution win; 0.08 still fails on any scale bug.
    expect_int8_tracks_fp32(fp32, cfg.num_classes, 3, cfg.input_size, 9,
                            0.9, 0.08f);
}

TEST(Quantize, TransposedDeepConvRepackedToFilterRows) {
    // A deep VGG plan compiles some convs `transposed` (oh·ow < F); the
    // int8 twin must repack those to filter-row qweights and clear the
    // flag, with scales matching the fp32 filter rows (after the
    // per-input-channel activation-scale fold, over the op's weight
    // range).
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    const FrozenModel fp32 =
        freeze(model.net, {3, cfg.input_size, cfg.input_size});
    bool any_transposed = false;
    for (const auto& op : fp32.ops) any_transposed |= op.transposed;
    ASSERT_TRUE(any_transposed)
        << "test premise broken: no transposed conv in the fp32 plan";

    const Tensor calib = random_batch(4, 3, cfg.input_size, 31);
    const FrozenModel int8 = quantize(fp32, calib);
    ASSERT_EQ(fp32.ops.size(), int8.ops.size());
    EXPECT_EQ(0, int8.tr_elems);
    for (std::size_t i = 0; i < int8.ops.size(); ++i) {
        const auto& qop = int8.ops[i];
        const auto& fop = fp32.ops[i];
        if (fop.kind != OpKind::kConv && fop.kind != OpKind::kLinear)
            continue;
        EXPECT_FALSE(qop.transposed);
        EXPECT_EQ(0, qop.weight.numel()) << "fp32 weight not dropped";
        ASSERT_EQ(static_cast<std::size_t>(fop.out_channels),
                  qop.qscale.size());
        // qweight rows are the fp32 filter rows padded to kQKAlign with
        // zero bytes (the padded-k GEMM contract, gemm_int8.h).
        const std::int64_t cols =
            fop.weight.numel() / fop.out_channels;
        const std::int64_t k_pad = padded_k(cols);
        ASSERT_EQ(fop.out_channels * k_pad,
                  static_cast<std::int64_t>(qop.qweight.size()));
        for (int f = 0; f < fop.out_channels; ++f)
            for (std::int64_t j = cols; j < k_pad; ++j)
                ASSERT_EQ(0, static_cast<int>(
                                 qop.qweight[static_cast<std::size_t>(
                                     f * k_pad + j)]))
                    << "op " << i << " row " << f << " pad byte " << j;
        EXPECT_GT(qop.in_scale, 0.0f);
        // Scale f must reproduce max|row_f| of the fp32 filter row; conv
        // columns are first folded with their input channel's activation
        // scale.
        const bool per_chan = fop.kind == OpKind::kConv;
        const std::int64_t kk = static_cast<std::int64_t>(fop.geom.kernel) *
                                fop.geom.kernel;
        const float qmax = static_cast<float>(
            qop.tactic.wbits == 8 ? kWeightQMaxFull : kWeightQMax);
        for (int f = 0; f < fop.out_channels; ++f) {
            float maxw = 0.0f;
            for (std::int64_t j = 0; j < cols; ++j) {
                const std::int64_t idx =
                    fop.transposed ? j * fop.out_channels + f : f * cols + j;
                float v = fop.weight.data()[static_cast<std::size_t>(idx)];
                if (per_chan)
                    v *= qop.act_scales[static_cast<std::size_t>(j / kk)];
                maxw = std::max(maxw, std::fabs(v));
            }
            EXPECT_NEAR(maxw / qmax, qop.qscale[static_cast<std::size_t>(f)],
                        1e-6f)
                << "op " << i << " channel " << f;
        }
    }
}

TEST(Quantize, AllZeroFilterDequantizesToBias) {
    // A filter with every weight zero (a pruned channel) must come out of
    // the int8 path as exactly its bias — scale 0 is not a NaN factory.
    nn::Sequential net;
    Rng rng(5);
    auto& conv = net.emplace<nn::Conv2d>(2, 3, 3, 1, 1, /*bias=*/true, rng);
    {
        auto w = conv.weight().value.data();
        for (std::size_t i = 0; i < 2u * 3u * 3u; ++i) w[i] = 0.0f;
        conv.bias().value.data()[0] = 0.75f;
    }
    const FrozenModel fp32 = freeze(net, {2, 4, 4});
    const Tensor calib = random_batch(2, 2, 4, 91);
    auto int8 = std::make_shared<const FrozenModel>(quantize(fp32, calib));

    Engine engine(int8, 1);
    const Tensor out = engine.run(random_batch(1, 2, 4, 92));
    // Channel 0 plane is 4x4 at the head of the output.
    for (int i = 0; i < 16; ++i)
        EXPECT_FLOAT_EQ(0.75f, out.data()[static_cast<std::size_t>(i)]);
}

TEST(Quantize, RejectsBadInputs) {
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    const FrozenModel fp32 =
        freeze(model.net, {3, cfg.input_size, cfg.input_size});
    const Tensor calib = random_batch(2, 3, cfg.input_size, 11);
    const FrozenModel int8 = quantize(fp32, calib);
    EXPECT_THROW((void)quantize(int8, calib), Error);        // already int8
    EXPECT_THROW((void)quantize(fp32, random_batch(2, 3, 8, 11)), Error);
    EXPECT_THROW((void)quantize(fp32, Tensor({3, 16, 16})), Error);
}

// ---------------------------------------------------------------- v4 io

TEST(FrozenIo, Fp32RoundTripBitExact) {
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    auto fp32 = std::make_shared<const FrozenModel>(
        freeze(model.net, {3, cfg.input_size, cfg.input_size}));
    const std::string bytes = serialize_frozen(*fp32);
    auto back = std::make_shared<const FrozenModel>(deserialize_frozen(bytes));
    EXPECT_EQ(Precision::kFloat32, back->precision);
    EXPECT_EQ(fp32->ops.size(), back->ops.size());
    EXPECT_EQ(fp32->macs, back->macs);

    const Tensor x = random_batch(3, 3, cfg.input_size, 21);
    Engine a(fp32, 3);
    Engine b(back, 3);
    const Tensor want = a.run(x);
    const Tensor got = b.run(x);
    ASSERT_EQ(want.shape(), got.shape());
    for (std::size_t i = 0; i < want.data().size(); ++i)
        ASSERT_EQ(want.data()[i], got.data()[i]) << "not bit-exact at " << i;
}

TEST(FrozenIo, Int8FileRoundTripBitExact) {
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    const FrozenModel fp32 =
        freeze(model.net, {3, cfg.input_size, cfg.input_size});
    auto int8 = std::make_shared<const FrozenModel>(
        quantize(fp32, random_batch(4, 3, cfg.input_size, 41)));

    const std::string path =
        (std::filesystem::temp_directory_path() / "hs_frozen_int8.bin")
            .string();
    save_frozen(*int8, path);
    auto back = std::make_shared<const FrozenModel>(load_frozen(path));
    std::remove(path.c_str());

    ASSERT_EQ(Precision::kInt8, back->precision);
    ASSERT_EQ(int8->ops.size(), back->ops.size());
    for (std::size_t i = 0; i < int8->ops.size(); ++i) {
        EXPECT_EQ(int8->ops[i].qweight, back->ops[i].qweight) << "op " << i;
        EXPECT_EQ(int8->ops[i].qscale, back->ops[i].qscale) << "op " << i;
        EXPECT_EQ(int8->ops[i].in_scale, back->ops[i].in_scale) << "op " << i;
    }

    const Tensor x = random_batch(2, 3, cfg.input_size, 42);
    Engine a(int8, 2);
    Engine b(back, 2);
    const Tensor want = a.run(x);
    const Tensor got = b.run(x);
    for (std::size_t i = 0; i < want.data().size(); ++i)
        ASSERT_EQ(want.data()[i], got.data()[i]) << "not bit-exact at " << i;
}

FrozenModel tiny_frozen() {
    nn::Sequential net;
    Rng rng(5);
    net.emplace<nn::Conv2d>(2, 3, 3, 1, 1, /*bias=*/true, rng);
    net.emplace<nn::GlobalAvgPool>();
    return freeze(net, {2, 4, 4});
}

TEST(FrozenIo, TruncationFuzzNamesSourceAndOffset) {
    const FrozenModel model = tiny_frozen();
    const std::string bytes = serialize_frozen(model);
    ASSERT_GT(bytes.size(), 64u);
    const std::string source = "frozen-fuzz.bin";
    const std::size_t cuts[] = {0,  3,  4,  11, 15, 19,
                                23, 24, bytes.size() / 2, bytes.size() - 1};
    for (const std::size_t cut : cuts) {
        try {
            (void)deserialize_frozen(bytes.substr(0, cut), source);
            FAIL() << "truncation at byte " << cut << " not rejected";
        } catch (const Error& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(source), std::string::npos)
                << "cut " << cut << ": message lacks source: " << msg;
        }
    }
}

TEST(FrozenIo, CrcFlipFuzzRejectsEveryDamagedCopy) {
    const FrozenModel model = tiny_frozen();
    const std::string bytes = serialize_frozen(model);
    constexpr std::size_t kPayloadStart = 24; // magic+endian+ver+crc+len
    std::vector<std::size_t> offsets{12};     // the stored CRC itself
    for (std::size_t off = kPayloadStart; off < bytes.size();
         off += bytes.size() / 17 + 1)
        offsets.push_back(off);
    for (const std::size_t off : offsets) {
        std::string damaged = bytes;
        damaged[off] = static_cast<char>(damaged[off] ^ 0x40);
        try {
            (void)deserialize_frozen(damaged, "frozen-crc.bin");
            FAIL() << "bit flip at byte " << off << " not rejected";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                      std::string::npos)
                << "flip " << off << ": " << e.what();
        }
    }
}

TEST(FrozenIo, CrossVersionFilesNameTheRightApi) {
    // A v3 training checkpoint fed to load_frozen must say "training
    // checkpoint"; a v5 frozen model fed to load_parameters must say
    // "frozen-model".
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    const auto tmp = std::filesystem::temp_directory_path();
    const std::string v3_path = (tmp / "hs_cross_v3.bin").string();
    const std::string v5_path = (tmp / "hs_cross_v5.bin").string();
    nn::save_parameters(model.net, v3_path);
    save_frozen(freeze(model.net, {3, cfg.input_size, cfg.input_size}),
                v5_path);

    try {
        (void)load_frozen(v3_path);
        FAIL() << "v3 file accepted by load_frozen";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("training checkpoint"),
                  std::string::npos)
            << e.what();
    }
    try {
        nn::load_parameters(model.net, v5_path);
        FAIL() << "v5 file accepted by load_parameters";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("frozen-model"),
                  std::string::npos)
            << e.what();
    }
    std::remove(v3_path.c_str());
    std::remove(v5_path.c_str());
}

TEST(FrozenIo, V4FileFailsWithReFreezeError) {
    // A pre-tuner v4 plan carries neither tactics nor activation scales;
    // loading one must fail with one located error that says what to do,
    // before the payload is even looked at.
    std::string bytes("HSWT", 4);
    for (const std::uint32_t v : {0x01020304u, 4u, 0u})  // tag, ver, crc
        bytes.append(reinterpret_cast<const char*>(&v), 4);
    const std::uint64_t payload_len = 0;
    bytes.append(reinterpret_cast<const char*>(&payload_len), 8);
    const std::string path =
        (std::filesystem::temp_directory_path() / "hs_frozen_v4.hswt")
            .string();
    atomic_write_file(path, bytes);
    try {
        (void)load_frozen(path);
        ADD_FAILURE() << "v4 file accepted by load_frozen";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("re-freeze"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------- serving

std::shared_ptr<const FrozenModel> int8_vgg(int* input_size, int* classes) {
    models::VggConfig cfg;
    auto model = models::make_vgg16(cfg);
    const FrozenModel fp32 =
        freeze(model.net, {3, cfg.input_size, cfg.input_size});
    *input_size = cfg.input_size;
    *classes = cfg.num_classes;
    return std::make_shared<const FrozenModel>(
        quantize(fp32, random_batch(4, 3, cfg.input_size, 61)));
}

TEST(ServingInt8, ServesInt8ModelMatchingEngine) {
    int input_size = 0, classes = 0;
    auto int8 = int8_vgg(&input_size, &classes);
    Engine reference(int8, 1);

    ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    ServingEngine serving(int8, cfg);

    constexpr int kRequests = 12;
    std::vector<Tensor> images;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
        images.push_back(Tensor(random_batch(
            1, 3, input_size, 600 + static_cast<std::uint64_t>(i))));
        auto f = serving.submit(images.back(), {}).future;
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    for (int i = 0; i < kRequests; ++i) {
        const Tensor got = futures[static_cast<std::size_t>(i)].get();
        const Tensor want = reference.run(images[static_cast<std::size_t>(i)]);
        ASSERT_EQ(want.numel(), got.numel());
        for (std::size_t j = 0; j < want.data().size(); ++j)
            ASSERT_EQ(want.data()[j], got.data()[j])
                << "request " << i << " element " << j;
    }
    serving.stop();
    EXPECT_EQ(kRequests, serving.stats().completed);
}

TEST(ServingInt8, SheddingHarnessUnchangedUnderInjectedStall) {
    // The fault/shedding machinery must treat an int8 model exactly like
    // fp32: a stalled worker sheds expired queued requests with
    // DeadlineExceeded while generous deadlines ride it out.
    int input_size = 0, classes = 0;
    auto int8 = int8_vgg(&input_size, &classes);

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    ServingEngine serving(int8, cfg);
    fault::arm("serving.worker=delay:300000");

    auto generous = serving.submit(random_batch(1, 3, input_size, 71),
                                   SubmitOptions{5'000'000});
    ASSERT_TRUE(generous.accepted());
    // Give the worker time to lift the first batch, then queue a request
    // whose deadline expires during the injected 300 ms stall.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto doomed = serving.submit(random_batch(1, 3, input_size, 72),
                                 SubmitOptions{30'000});
    ASSERT_TRUE(doomed.accepted());

    EXPECT_NO_THROW((void)generous.future->get());
    EXPECT_THROW((void)doomed.future->get(), DeadlineExceeded);
    serving.stop();
    fault::disarm();
    EXPECT_EQ(1, serving.stats().shed);
}

TEST(ServingInt8, RequestSpansSplitQueueWaitFromCompute) {
    // Satellite: with observability on, each served request leaves
    // serve.submit / serve.queue_wait / serve.batch_compute spans, so its
    // latency decomposes on the trace timeline.
    obs::set_enabled(true);
    obs::reset_spans();
    int input_size = 0, classes = 0;
    auto int8 = int8_vgg(&input_size, &classes);

    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    ServingEngine serving(int8, cfg);
    constexpr int kRequests = 6;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
        Tensor image = random_batch(1, 3, input_size,
                                    80 + static_cast<std::uint64_t>(i));
        auto f = serving.submit(std::move(image), {}).future;
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    for (auto& f : futures) (void)f.get();
    serving.stop();

    int submits = 0, waits = 0, assembles = 0, computes = 0;
    for (const auto& e : obs::span_events()) {
        if (e.name == "serve.submit") ++submits;
        if (e.name == "serve.queue_wait") ++waits;
        if (e.name == "serve.batch_assemble") ++assembles;
        if (e.name == "serve.batch_compute") ++computes;
    }
    obs::set_enabled(false);
    obs::reset_spans();
    EXPECT_EQ(kRequests, submits);
    EXPECT_EQ(kRequests, waits);  // one queue-wait interval per request
    EXPECT_GE(assembles, 1);
    EXPECT_GE(computes, 1);
    EXPECT_LE(computes, kRequests);  // batching: at most one per request
}

} // namespace
} // namespace hs::infer
