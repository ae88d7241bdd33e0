// Freeze-time kernel autotuning (DESIGN.md §14): the Tuner must pick
// tactics deterministically from an injected cost model and never time a
// tactic this host cannot execute; tuned plans must round-trip the v5
// frozen container, degrade unknown tactic bytes to the heuristic
// instead of failing the load, and — because every catalog kernel is a
// bit-exact int32 GEMM — produce identical engine outputs no matter
// which tiling won. Multi-way tiling on the shared TaskPool is exercised under
// concurrent ServingEngine batches and registry hot-swaps, which is the
// TSan target for the worker pool.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "infer/infer.h"
#include "models/vgg.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/gemm_int8.h"
#include "tensor/rng.h"
#include "util/error.h"

namespace hs::infer {
namespace {

Tensor random_batch(int n, int c, int s, std::uint64_t seed) {
    Tensor t({n, c, s, s});
    Rng rng(seed);
    rng.fill_normal(t, 0.0, 1.0);
    return t;
}

/// Deterministic pure cost model: distinct per (kernel, ways, stack,
/// shape), no clock involved.
double synthetic_cost(const QGemmTactic& t, int m, int n, int k) {
    return 10.0 + 1.7 * static_cast<double>(t.kernel) +
           0.3 * t.ways + (t.batch_stack ? -2.5 : 0.0) + 1e-3 * m +
           1e-4 * n + 1e-5 * k;
}

FrozenModel tiny_conv_frozen() {
    nn::Sequential net;
    Rng rng(5);
    net.emplace<nn::Conv2d>(2, 4, 3, 1, 1, /*bias=*/true, rng);
    net.emplace<nn::GlobalAvgPool>();
    return freeze(net, {2, 4, 4});
}

std::shared_ptr<const FrozenModel> small_vgg_fp32(int* input_size) {
    models::VggConfig cfg;
    cfg.width_scale = 0.125;
    cfg.input_size = 16;
    *input_size = cfg.input_size;
    auto model = models::make_vgg16(cfg);
    return std::make_shared<const FrozenModel>(
        freeze(model.net, {3, cfg.input_size, cfg.input_size}));
}

TEST(Tuner, SelectionIsDeterministicAndCached) {
    TunerConfig cfg;
    cfg.target_batch = 8;
    cfg.measure = synthetic_cost;
    Tuner t1(cfg), t2(cfg);

    const QGemmTactic a = t1.pick(32, 48, 64, 7, /*can_stack=*/true);
    const QGemmTactic b = t2.pick(32, 48, 64, 7, /*can_stack=*/true);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.ways, b.ways);
    EXPECT_EQ(a.wbits, b.wbits);
    EXPECT_EQ(a.batch_stack, b.batch_stack);

    ASSERT_EQ(1u, t1.table().size());
    ASSERT_EQ(t1.table().size(), t2.table().size());
    const TunedShape& s1 = t1.table()[0];
    const TunedShape& s2 = t2.table()[0];
    EXPECT_EQ(s1.best_ms, s2.best_ms);
    ASSERT_EQ(s1.timings.size(), s2.timings.size());
    for (std::size_t i = 0; i < s1.timings.size(); ++i) {
        EXPECT_EQ(s1.timings[i].tactic.kernel, s2.timings[i].tactic.kernel);
        EXPECT_EQ(s1.timings[i].ms, s2.timings[i].ms);
    }

    // Same shape again: served from the cache, no new table entry, and
    // the identical tactic.
    const QGemmTactic again = t1.pick(32, 48, 64, 7, true);
    EXPECT_EQ(1u, t1.table().size());
    EXPECT_EQ(a.kernel, again.kernel);
    EXPECT_EQ(a.ways, again.ways);

    // The synthetic cost rewards stacking (-2.5) and punishes wide
    // tiling, so the winner must be a 1-way stacked tactic.
    EXPECT_TRUE(a.batch_stack);
    EXPECT_EQ(1, a.ways);
}

TEST(Tuner, NeverMeasuresInexecutableOrScalarTactics) {
    std::vector<QGemmTactic> measured;
    TunerConfig cfg;
    cfg.target_batch = 4;
    cfg.measure = [&measured](const QGemmTactic& t, int m, int n, int k) {
        measured.push_back(t);
        return synthetic_cost(t, m, n, k);
    };
    Tuner tuner(cfg);
    (void)tuner.pick(16, 24, 32, 7, true);
    if (cpu_supports_vnni()) (void)tuner.pick(16, 24, 32, 8, true);

    ASSERT_FALSE(measured.empty());
    for (const QGemmTactic& t : measured) {
        // The hook must only ever see tactics this host executes as-is:
        // anything normalize_tactic would rewrite times the wrong kernel.
        QGemmTactic probe = t;
        EXPECT_FALSE(normalize_tactic(probe));
        EXPECT_NE(QKernel::kScalarRef, t.kernel);  // oracle, not contender
    }
}

TEST(Tuner, CandidateCatalogRespectsWeightContract) {
    // 8-bit weights may only race full-range kernels.
    for (const QGemmTactic& t : Tuner::candidates(8, true, 8)) {
        EXPECT_EQ(QKernel::kVnni, t.kernel);
        EXPECT_EQ(8, t.wbits);
    }
    // 7-bit plans race maddubs (and VNNI where present); batch stacking
    // only appears when there is a batch to stack.
    bool saw_maddubs = false;
    for (const QGemmTactic& t : Tuner::candidates(7, true, 1)) {
        saw_maddubs |= t.kernel == QKernel::kMaddubs;
        EXPECT_FALSE(t.batch_stack);
    }
    EXPECT_TRUE(saw_maddubs);
    for (const QGemmTactic& t : Tuner::candidates(7, false, 8))
        EXPECT_FALSE(t.batch_stack);
}

TEST(FrozenV5, RoundTripPreservesTacticsAndActScales) {
    const FrozenModel fp32 = tiny_conv_frozen();
    QuantizeOptions opts;
    opts.tuner.target_batch = 4;
    opts.tuner.measure = synthetic_cost;
    const FrozenModel int8 =
        quantize(fp32, random_batch(4, 2, 4, 11), opts);

    // The conv op must carry per-input-channel activation scales.
    bool saw_per_channel = false;
    for (const FrozenOp& op : int8.ops)
        if (op.kind == OpKind::kConv && op.act_scales.size() > 1) {
            EXPECT_EQ(static_cast<std::size_t>(op.geom.channels),
                      op.act_scales.size());
            saw_per_channel = true;
        }
    EXPECT_TRUE(saw_per_channel);

    const std::string bytes = serialize_frozen(int8);
    const FrozenModel back = deserialize_frozen(bytes, "tuned-v5.bin");
    ASSERT_EQ(int8.ops.size(), back.ops.size());
    for (std::size_t i = 0; i < int8.ops.size(); ++i) {
        const FrozenOp& a = int8.ops[i];
        const FrozenOp& b = back.ops[i];
        EXPECT_EQ(a.tactic.kernel, b.tactic.kernel);
        EXPECT_EQ(a.tactic.ways, b.tactic.ways);
        EXPECT_EQ(a.tactic.wbits, b.tactic.wbits);
        EXPECT_EQ(a.tactic.batch_stack, b.tactic.batch_stack);
        ASSERT_EQ(a.act_scales.size(), b.act_scales.size());
        for (std::size_t j = 0; j < a.act_scales.size(); ++j)
            EXPECT_EQ(a.act_scales[j], b.act_scales[j]);
    }

    // Bit-exact through the engine, not just structurally equal.
    auto pa = std::make_shared<const FrozenModel>(int8);
    auto pb = std::make_shared<const FrozenModel>(back);
    const Tensor x = random_batch(2, 2, 4, 12);
    const Tensor want = Engine(pa, 2).run(x);
    const Tensor got = Engine(pb, 2).run(x);
    ASSERT_EQ(want.numel(), got.numel());
    for (std::size_t i = 0; i < want.data().size(); ++i)
        EXPECT_EQ(want.data()[i], got.data()[i]);
}

TEST(FrozenV5, UnknownTacticByteDegradesToExecutableFallback) {
    // A plan tuned on another machine (or a future kernel id) must load
    // here and run on the fallback, not fail: the tactic is advice.
    FrozenModel int8 =
        quantize(tiny_conv_frozen(), random_batch(4, 2, 4, 31));
    bool corrupted = false;
    for (FrozenOp& op : int8.ops)
        if (op.kind == OpKind::kConv || op.kind == OpKind::kLinear) {
            op.tactic.kernel = static_cast<QKernel>(0xEE);
            op.tactic.ways = 3;  // not a valid partitioning either
            corrupted = true;
        }
    ASSERT_TRUE(corrupted);

    const FrozenModel back =
        deserialize_frozen(serialize_frozen(int8), "alien-tactic.bin");
    for (const FrozenOp& op : back.ops) {
        if (op.kind != OpKind::kConv && op.kind != OpKind::kLinear)
            continue;
        EXPECT_NE(0xEE, static_cast<int>(op.tactic.kernel));
        QGemmTactic probe = op.tactic;  // already normalized on read
        EXPECT_FALSE(normalize_tactic(probe));
    }
    Engine engine(std::make_shared<const FrozenModel>(back), 1);
    const Tensor out = engine.run(random_batch(1, 2, 4, 32));
    EXPECT_EQ(4, out.numel());
}

TEST(EngineTactics, TilingWaysDoNotChangeOutputs) {
    // Every catalog kernel computes the identical int32 GEMM, so the
    // tiling the tuner commits must be invisible in the numerics.
    int input_size = 0;
    auto fp32 = small_vgg_fp32(&input_size);
    const Tensor calib = random_batch(4, 3, input_size, 41);

    const auto tuned_with = [&](int want_ways) {
        QuantizeOptions opts;
        opts.tuner.target_batch = 4;
        opts.tuner.measure = [want_ways](const QGemmTactic& t, int, int,
                                         int) {
            return t.ways == want_ways ? 0.5 : 1.0;
        };
        return std::make_shared<const FrozenModel>(
            quantize(*fp32, calib, opts));
    };
    auto one_way = tuned_with(1);
    auto four_way = tuned_with(4);

    bool saw_four = false;
    for (const FrozenOp& op : four_way->ops)
        saw_four |= op.tactic.ways == 4;
    EXPECT_TRUE(saw_four);

    const Tensor x = random_batch(4, 3, input_size, 42);
    const Tensor want = Engine(one_way, 4).run(x);
    const Tensor got = Engine(four_way, 4).run(x);
    ASSERT_EQ(want.numel(), got.numel());
    for (std::size_t i = 0; i < want.data().size(); ++i)
        ASSERT_EQ(want.data()[i], got.data()[i])
            << "tiling changed output " << i;
}

TEST(EngineTactics, ConcurrentTiledServingAndHotReloads) {
    // The TSan leg's main course: several ServingEngine workers running
    // 4-way tiled GEMMs through the shared pool while the registry
    // gauntlet (its own Engines, same pool) hot-swaps the model.
    int input_size = 0;
    auto fp32 = small_vgg_fp32(&input_size);
    QuantizeOptions opts;
    opts.tuner.target_batch = 4;
    opts.tuner.measure = [](const QGemmTactic& t, int, int, int) {
        return t.ways == 4 ? 0.5 : 1.0;  // force multi-way everywhere
    };
    auto tuned = std::make_shared<const FrozenModel>(
        quantize(*fp32, random_batch(4, 3, input_size, 51), opts));
    auto candidate = std::make_shared<const FrozenModel>(
        quantize(*fp32, random_batch(4, 3, input_size, 52), opts));

    Engine reference(tuned, 1);
    ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    ServingEngine serving(tuned, cfg);

    ModelRegistry registry;
    registry.add("m", tuned);
    std::atomic<int> swaps_ok{0};
    std::thread reloader([&] {
        ReloadPolicy policy;
        policy.canary_inputs = 2;
        policy.min_argmax_agreement = 0.0;  // exercise machinery, not fit
        for (int i = 0; i < 3; ++i) {
            const auto result = registry.swap_model(
                "m", i % 2 == 0 ? candidate : tuned, policy);
            if (result.ok) swaps_ok.fetch_add(1);
        }
    });

    constexpr int kRequests = 16;
    std::vector<Tensor> images;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
        images.push_back(Tensor(random_batch(
            1, 3, input_size, 700 + static_cast<std::uint64_t>(i))));
        auto f = serving.submit(images.back(), {}).future;
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    for (int i = 0; i < kRequests; ++i) {
        const Tensor got = futures[static_cast<std::size_t>(i)].get();
        const Tensor want =
            reference.run(images[static_cast<std::size_t>(i)]);
        ASSERT_EQ(want.numel(), got.numel());
        for (std::size_t j = 0; j < want.data().size(); ++j)
            ASSERT_EQ(want.data()[j], got.data()[j]);
    }
    reloader.join();
    EXPECT_EQ(3, swaps_ok.load());
}

} // namespace
} // namespace hs::infer
