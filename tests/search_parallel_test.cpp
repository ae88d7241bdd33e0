// Parallel pruning search (DESIGN.md §15): determinism and fault
// contracts of the worker-pool fan-out.
//  * workers=1 reproduces the historical sequential trace bit-for-bit
//    (asserted against an in-test replica of the old sequential loop);
//  * results are invariant in the worker count AND run-to-run at fixed N;
//  * counter-based Rng streams make even stochastic evaluators
//    schedule-independent;
//  * a mid-search kill + resume under workers=4 restores an identical
//    trace prefix;
//  * HS_FAULT search.worker=crash respawns lanes without losing samples;
//  * the shared TaskPool runs every index exactly once (including the
//    1/2/4-way GEMM tilings), does not serialize concurrent submitters,
//    and survives nested fan-outs.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_pruner.h"
#include "core/reward.h"
#include "core/search.h"
#include "fault/fault.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "pruning/mask.h"
#include "tensor/task_pool.h"
#include "util/error.h"
#include "util/fsio.h"

namespace hs {
namespace {

// --------------------------------------------------------------------------
// ActionSearch determinism

/// Deterministic synthetic accuracy: rewards a particular subset of
/// channels so the search has real structure to find.
double synthetic_accuracy(std::span<const float> action) {
    double acc = 0.2;
    const double scale = 2.0 * static_cast<double>(action.size());
    for (std::size_t i = 0; i < action.size(); ++i)
        acc += action[i] * (0.5 + 0.37 * std::sin(static_cast<double>(i))) / scale;
    return acc;
}

core::SearchConfig small_config() {
    core::SearchConfig cfg;
    cfg.speedup = 2.0;
    cfg.max_iters = 12;
    cfg.stable_window = 5;
    cfg.seed = 123;
    return cfg;
}

/// Replica of the pre-parallel sequential ActionSearch::run() loop
/// (inference-action baseline), kept as the golden reference the
/// workers=1 implementation must match bit-for-bit.
core::SearchResult reference_sequential(
    int actions, const std::function<double(std::span<const float>)>& evaluate,
    double acc_orig, const core::SearchConfig& config) {
    core::SearchConfig cfg = config;
    cfg.policy.seed = config.seed * 0x9e37 + 1;
    core::HeadStartNet policy(actions, cfg.policy);
    Rng rng(config.seed);

    core::SearchResult result;
    double moving_avg = 0.0;
    bool moving_init = false;
    auto action_reward = [&](std::span<const float> action) {
        const int l0 = pruning::l0_norm(action);
        return core::reward(evaluate(action), acc_orig, actions, l0,
                            config.speedup);
    };
    std::vector<float> best_action;
    double best_reward = -1e30;
    for (int iter = 0; iter < config.max_iters; ++iter) {
        const auto probs = policy.probs(rng);
        const auto infer =
            core::inference_action(probs, config.threshold, config.min_keep);
        const double infer_acc = evaluate(infer);
        const int infer_l0 = pruning::l0_norm(infer);
        const double infer_reward =
            core::reward(infer_acc, acc_orig, actions, infer_l0, config.speedup);
        const double baseline = infer_reward;

        std::vector<float> grad(static_cast<std::size_t>(actions), 0.0f);
        double mean_sample_reward = 0.0;
        for (int s = 0; s < config.monte_carlo_k; ++s) {
            const auto action =
                core::sample_action(probs, rng, config.min_keep);
            const double r = action_reward(action);
            mean_sample_reward += r;
            core::accumulate_policy_gradient(probs, action, r - baseline,
                                             1.0 / config.monte_carlo_k, grad);
            if (r > best_reward) {
                best_reward = r;
                best_action.assign(action.begin(), action.end());
            }
        }
        mean_sample_reward /= config.monte_carlo_k;
        if (infer_reward > best_reward) {
            best_reward = infer_reward;
            best_action.assign(infer.begin(), infer.end());
        }
        moving_avg = moving_init ? 0.9 * moving_avg + 0.1 * mean_sample_reward
                                 : mean_sample_reward;
        moving_init = true;
        policy.apply_gradient(grad);
        result.reward_history.push_back(infer_reward);
        result.l0_history.push_back(infer_l0);
        result.iterations = iter + 1;
        if (static_cast<int>(result.reward_history.size()) >=
            config.stable_window) {
            const auto begin =
                result.reward_history.end() - config.stable_window;
            const auto [mn, mx] =
                std::minmax_element(begin, result.reward_history.end());
            if (*mx - *mn < config.stable_eps) break;
        }
    }
    const auto final_probs = policy.probs(rng);
    auto final_action =
        core::inference_action(final_probs, config.threshold, config.min_keep);
    double final_r = action_reward(final_action);
    if (!best_action.empty() && best_reward > final_r) {
        final_action = best_action;
        final_r = best_reward;
    }
    result.inception_accuracy = evaluate(final_action);
    result.keep = pruning::keep_from_mask(final_action);
    return result;
}

void expect_identical(const core::SearchResult& a, const core::SearchResult& b) {
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.keep, b.keep);
    EXPECT_EQ(a.l0_history, b.l0_history);
    ASSERT_EQ(a.reward_history.size(), b.reward_history.size());
    for (std::size_t i = 0; i < a.reward_history.size(); ++i)
        EXPECT_EQ(a.reward_history[i], b.reward_history[i]) << "iter " << i;
    EXPECT_EQ(a.inception_accuracy, b.inception_accuracy);
}

core::EvaluatorFactory synthetic_factory() {
    return [](int) -> core::StochasticEvaluator {
        return [](std::span<const float> action, Rng&) {
            return synthetic_accuracy(action);
        };
    };
}

TEST(SearchParallel, WorkersOneMatchesSequentialReferenceBitExact) {
    const int actions = 16;
    const auto reference = reference_sequential(
        actions, synthetic_accuracy, 0.6, small_config());

    core::ActionSearch driver(actions, synthetic_factory(), 0.6,
                              small_config());
    const auto got = driver.run();
    EXPECT_EQ(got.workers, 1);
    expect_identical(reference, got);
}

TEST(SearchParallel, ResultInvariantInWorkerCountAndRepeatable) {
    const int actions = 16;
    std::vector<core::SearchResult> results;
    for (const int workers : {1, 2, 4, 4}) {  // 4 twice: fixed-N determinism
        core::SearchConfig cfg = small_config();
        cfg.workers = workers;
        core::ActionSearch driver(actions, synthetic_factory(), 0.6, cfg);
        results.push_back(driver.run());
    }
    EXPECT_EQ(results[1].workers, 2);
    EXPECT_EQ(results[2].workers, 4);
    for (std::size_t i = 1; i < results.size(); ++i)
        expect_identical(results[0], results[i]);
}

TEST(SearchParallel, StochasticEvaluatorStreamsAreScheduleIndependent) {
    // The evaluator consumes its per-sample counter stream; the draw must
    // depend only on (seed, iteration, sample), never on the lane or the
    // worker count.
    const int actions = 12;
    auto factory = [](int) -> core::StochasticEvaluator {
        return [](std::span<const float> action, Rng& rng) {
            return synthetic_accuracy(action) + 0.01 * rng.uniform();
        };
    };
    std::vector<core::SearchResult> results;
    for (const int workers : {1, 2, 4}) {
        core::SearchConfig cfg = small_config();
        cfg.workers = workers;
        core::ActionSearch driver(actions, factory, 0.6, cfg);
        results.push_back(driver.run());
    }
    expect_identical(results[0], results[1]);
    expect_identical(results[0], results[2]);
}

TEST(SearchParallel, CounterStreamIsPureFunctionOfCounters) {
    Rng a = Rng::counter_stream(7, 3, 9);
    Rng b = Rng::counter_stream(7, 3, 9);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
    Rng c = Rng::counter_stream(7, 3, 10);
    Rng d = Rng::counter_stream(7, 4, 9);
    EXPECT_NE(c.next_u64(), d.next_u64());
    EXPECT_NE(Rng::counter_stream(7, 3, 9).next_u64(),
              Rng::counter_stream(8, 3, 9).next_u64());
}

// --------------------------------------------------------------------------
// Worker-crash injection

class SearchFaultTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(SearchFaultTest, CrashedLanesRespawnWithoutLosingSamples) {
    const int actions = 16;
    core::SearchConfig cfg = small_config();
    cfg.workers = 4;
    core::ActionSearch clean(actions, synthetic_factory(), 0.6, cfg);
    const auto want = clean.run();

    obs::set_enabled(true);
    auto& respawns =
        obs::Registry::instance().counter("search.worker_respawns");
    const auto respawns0 = respawns.value();

    fault::arm("search.worker=crash");
    core::ActionSearch faulted(actions, synthetic_factory(), 0.6, cfg);
    const auto got = faulted.run();
    EXPECT_GT(fault::hits("search.worker"), 0);
    fault::disarm();

    // Every lost sample was replayed on a respawned lane with the same
    // Rng stream: the trace is unchanged.
    expect_identical(want, got);
    EXPECT_GT(respawns.value(), respawns0);
}

TEST_F(SearchFaultTest, DelayedWorkersChangeNothingButTime) {
    const int actions = 12;
    core::SearchConfig cfg = small_config();
    cfg.max_iters = 4;
    cfg.workers = 2;
    core::ActionSearch clean(actions, synthetic_factory(), 0.6, cfg);
    const auto want = clean.run();

    fault::arm("search.worker=delay:200");
    core::ActionSearch delayed(actions, synthetic_factory(), 0.6, cfg);
    expect_identical(want, delayed.run());
}

// --------------------------------------------------------------------------
// Kill + resume under workers=4

data::SyntheticImageDataset tiny_dataset() {
    data::SyntheticConfig cfg = data::cifar100_like();
    cfg.num_classes = 6;
    cfg.image_size = 8;
    cfg.train_per_class = 25;
    cfg.test_per_class = 10;
    cfg.seed = 404;
    return data::SyntheticImageDataset(cfg);
}

models::VggModel tiny_vgg(const data::SyntheticConfig& data_cfg) {
    models::VggConfig cfg;
    cfg.input_size = data_cfg.image_size;
    cfg.num_classes = data_cfg.num_classes;
    cfg.width_scale = 0.0625;
    return models::make_vgg16(cfg);
}

void quick_train(nn::Sequential& net,
                 const data::SyntheticImageDataset& dataset, int epochs) {
    data::DataLoader loader(dataset.train(), 25, true, 7);
    (void)nn::finetune(net, loader, epochs, 1e-2f);
}

core::HeadStartConfig quick_headstart(int workers) {
    core::HeadStartConfig cfg;
    cfg.workers = workers;
    cfg.search.speedup = 2.0;
    cfg.search.max_iters = 6;
    cfg.search.stable_window = 3;
    cfg.finetune_epochs = 1;
    cfg.reward_subset = 48;
    return cfg;
}

TEST_F(SearchFaultTest, CheckpointKillAndResumeKeepsTracePrefix) {
    const auto dataset = tiny_dataset();
    // Per-process name: concurrent runs of this suite must not delete
    // each other's checkpoints.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("hs_parallel_resume_test_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    // Reference: same seeds, workers=4, no faults, no checkpoints.
    auto reference = tiny_vgg(dataset.config());
    quick_train(reference.net, dataset, 2);
    const auto ref_result =
        core::headstart_prune_vgg(reference, dataset, quick_headstart(4));
    ASSERT_EQ(ref_result.trace.size(), 12u);

    // Crashing run: each layer commits synchronously, model file then
    // state, so atomic-write hit 3 is still the layer-1 model file. Tear
    // it; the injected Error surfaces at that write.
    auto cfg = quick_headstart(4);
    cfg.checkpoint_dir = dir;
    auto crashing = tiny_vgg(dataset.config());
    quick_train(crashing.net, dataset, 2);
    fault::arm("fsio.atomic_write=torn:64@3#1");
    EXPECT_THROW((void)core::headstart_prune_vgg(crashing, dataset, cfg),
                 Error);
    fault::disarm();

    const std::string state = read_file(dir + "/state.txt");
    EXPECT_NE(state.find("next_layer 1"), std::string::npos) << state;
    EXPECT_TRUE(std::filesystem::exists(dir + "/model_layer_0.bin"));

    // Resume under workers=4: restores the committed layer-0 row verbatim
    // and completes the remaining layers.
    auto resumed = tiny_vgg(dataset.config());
    quick_train(resumed.net, dataset, 2);
    const auto result = core::headstart_prune_vgg(resumed, dataset, cfg);
    EXPECT_EQ(result.start_layer, 1);
    ASSERT_EQ(result.trace.size(), 12u);
    const auto& got = result.trace[0];
    const auto& want = ref_result.trace[0];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.maps_before, want.maps_before);
    EXPECT_EQ(got.maps_after, want.maps_after);
    EXPECT_EQ(got.params, want.params);
    EXPECT_EQ(got.flops, want.flops);
    EXPECT_EQ(got.acc_inception, want.acc_inception);
    EXPECT_EQ(got.acc_finetuned, want.acc_finetuned);
    EXPECT_EQ(got.search_iterations, want.search_iterations);

    std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------------
// Whole-model trace invariance in the worker count

TEST(SearchParallel, WholeModelTraceInvariantInWorkerCount) {
    const auto dataset = tiny_dataset();
    auto start = tiny_vgg(dataset.config());
    quick_train(start.net, dataset, 2);
    auto seq = start;  // deep copy: identical starting weights

    auto cfg1 = quick_headstart(1);
    cfg1.search.max_iters = 4;  // keep it cheap

    const auto a = core::headstart_prune_vgg(seq, dataset, cfg1);
    // 2 lanes is the deployed setting; 4 is the fan-out's upper end.
    for (const int workers : {2, 4}) {
        auto par = start;  // deep copy: identical starting weights
        auto cfg = cfg1;
        cfg.workers = workers;
        const auto b = core::headstart_prune_vgg(par, dataset, cfg);
        ASSERT_EQ(a.trace.size(), b.trace.size()) << workers;
        for (std::size_t i = 0; i < a.trace.size(); ++i) {
            EXPECT_EQ(a.trace[i].name, b.trace[i].name) << workers << " " << i;
            EXPECT_EQ(a.trace[i].maps_before, b.trace[i].maps_before)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].maps_after, b.trace[i].maps_after)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].params, b.trace[i].params)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].flops, b.trace[i].flops)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].acc_inception, b.trace[i].acc_inception)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].acc_finetuned, b.trace[i].acc_finetuned)
                << workers << " " << i;
            EXPECT_EQ(a.trace[i].search_iterations,
                      b.trace[i].search_iterations)
                << workers << " " << i;
        }
        EXPECT_EQ(a.final_accuracy, b.final_accuracy) << workers;
        EXPECT_EQ(a.compression_ratio, b.compression_ratio) << workers;
    }
}

TEST(SearchParallel, EvaluateParallelMatchesSequential) {
    const auto dataset = tiny_dataset();
    auto model = tiny_vgg(dataset.config());
    quick_train(model.net, dataset, 1);
    const double want = nn::evaluate(model.net, dataset.test());
    EXPECT_EQ(want, nn::evaluate_parallel(model.net, dataset.test(), 1));
    EXPECT_EQ(want, nn::evaluate_parallel(model.net, dataset.test(), 2));
    EXPECT_EQ(want, nn::evaluate_parallel(model.net, dataset.test(), 4));
}

// --------------------------------------------------------------------------
// TaskPool contracts

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
    // 1/2/4 are the qgemm row tilings; 64 is a search-sized fan-out.
    constexpr int kMaxTasks = 64;
    using Hits = std::array<std::atomic<int>, kMaxTasks>;
    for (const int tasks : {1, 2, 4, kMaxTasks}) {
        Hits hits{};
        TaskPool::instance().run(
            tasks,
            [](void* p, int i) {
                (*static_cast<Hits*>(p))[static_cast<std::size_t>(i)]
                    .fetch_add(1);
            },
            &hits);
        for (int i = 0; i < kMaxTasks; ++i)
            EXPECT_EQ(i < tasks ? 1 : 0,
                      hits[static_cast<std::size_t>(i)].load())
                << "tasks=" << tasks << " index=" << i;
    }
    // A 4-way run needs only 3 pool threads; the caller is the fourth.
    EXPECT_GE(TaskPool::instance().workers(), 3);
}

TEST(TaskPool, ConcurrentSubmittersDoNotSerialize) {
    // Job A's task 0 blocks until job B (submitted from another thread
    // while A is in flight) has run. Under one dispatch mutex held across
    // a whole operation, B could never start while A was in flight and
    // this test would deadlock; the TaskPool FIFO interleaves the two
    // jobs.
    std::atomic<bool> a_started{false};
    std::atomic<bool> b_done{false};
    struct Ctx {
        std::atomic<bool>* started;
        std::atomic<bool>* done;
    } ctx{&a_started, &b_done};
    std::thread submitter_a([&] {
        TaskPool::instance().run(
            2,
            [](void* p, int index) {
                auto* c = static_cast<Ctx*>(p);
                c->started->store(true);
                if (index == 0)
                    while (!c->done->load())
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
            },
            &ctx);
    });
    while (!a_started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    TaskPool::instance().run(
        2, [](void* p, int) { static_cast<std::atomic<bool>*>(p)->store(true); },
        &b_done);
    submitter_a.join();
    EXPECT_TRUE(b_done.load());
}

TEST(TaskPool, NestedRunDrains) {
    std::atomic<int> inner_count{0};
    TaskPool::instance().run(
        2,
        [](void* p, int) {
            TaskPool::instance().run(
                2,
                [](void* q, int) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
                p);
        },
        &inner_count);
    EXPECT_EQ(inner_count.load(), 4);
}

} // namespace
} // namespace hs
