#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"
#include "pruning/mask.h"
#include "tensor/task_pool.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hs::core {
namespace {

/// Memo key of a 0/1 action: its bits packed 64 to a word.
using ActionKey = std::vector<std::uint64_t>;

ActionKey pack_action(std::span<const float> action) {
    ActionKey key((action.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < action.size(); ++i)
        if (action[i] != 0.0f) key[i / 64] |= std::uint64_t{1} << (i % 64);
    return key;
}

/// One fan-out of candidate-action evaluations over the worker lanes.
/// Task t runs on lane t % lanes and its result comes back indexed by
/// task, so the caller consumes results in task order whatever the lane
/// count.
struct EvalBatch {
    std::span<const std::vector<float>> tasks;
    std::span<ActionEvaluator> lanes;
    bool faults = false;  ///< consult the search.worker injection point
    std::vector<double> acc;
    std::vector<std::exception_ptr> error;
    std::vector<std::uint8_t> lost;  ///< crashed-lane tasks to respawn
    std::atomic<std::int64_t>* busy_us = nullptr;
};

/// Lane body run by TaskPool (and inline when lanes == 1).
void eval_lane(void* ctx, int lane) {
    auto& b = *static_cast<EvalBatch*>(ctx);
    obs::Span span("search.eval/w" + std::to_string(lane), "search");
    const int nlanes = static_cast<int>(b.lanes.size());
    const int ntasks = static_cast<int>(b.tasks.size());
    for (int t = lane; t < ntasks; t += nlanes) {
        if (b.faults && fault::enabled()) {
            if (const auto f = fault::at("search.worker")) {
                if (f->action == "crash") {
                    // Simulated worker death: this lane abandons all of its
                    // remaining tasks; the coordinator respawns it after the
                    // barrier and replays them on a fresh evaluator, so no
                    // sample is lost or altered.
                    for (int u = t; u < ntasks; u += nlanes) b.lost[u] = 1;
                    return;
                }
                if (f->action == "delay") {
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        static_cast<std::int64_t>(f->value)));
                }
            }
        }
        Stopwatch watch;
        try {
            b.acc[static_cast<std::size_t>(t)] =
                b.lanes[static_cast<std::size_t>(lane)](
                    b.tasks[static_cast<std::size_t>(t)]);
        } catch (...) {
            b.error[static_cast<std::size_t>(t)] = std::current_exception();
        }
        const auto us = static_cast<std::int64_t>(watch.seconds() * 1e6);
        b.busy_us->fetch_add(us, std::memory_order_relaxed);
        if (obs::enabled()) {
            obs::count("search.action_evaluations.w" + std::to_string(lane));
        }
    }
}

} // namespace

ActionSearch::ActionSearch(int actions, ActionEvaluator evaluate,
                           double acc_orig, const SearchConfig& config)
    : actions_(actions), acc_orig_(acc_orig), config_(config) {
    require(evaluate != nullptr, "null evaluator");
    // A single shared evaluation context cannot fan out safely.
    config_.workers = 1;
    auto shared = std::make_shared<ActionEvaluator>(std::move(evaluate));
    factory_ = [shared](int) -> ActionEvaluator {
        return [shared](std::span<const float> action) {
            return (*shared)(action);
        };
    };
    require(actions_ > 0, "search needs at least one action");
    require(acc_orig_ > 0.0, "original accuracy must be positive");
    require(config_.monte_carlo_k >= 1, "k must be at least 1");
}

ActionSearch::ActionSearch(int actions, EvaluatorFactory factory,
                           double acc_orig, const SearchConfig& config)
    : actions_(actions),
      factory_(std::move(factory)),
      acc_orig_(acc_orig),
      config_(config) {
    require(factory_ != nullptr, "null evaluator factory");
    require(actions_ > 0, "search needs at least one action");
    require(acc_orig_ > 0.0, "original accuracy must be positive");
    require(config_.monte_carlo_k >= 1, "k must be at least 1");
}

SearchResult ActionSearch::run() {
    const std::string label = config_.label.empty() ? "search" : config_.label;
    obs::Span run_span("search.run/" + label, "search");
    Stopwatch run_watch;

    // Lanes beyond the 1 + k per-iteration tasks would sit idle.
    const int nlanes =
        std::clamp(config_.workers, 1, 1 + config_.monte_carlo_k);

    PolicyConfig policy_config = config_.policy;
    policy_config.seed = config_.seed * 0x9e37 + 1; // decorrelate policy init
    HeadStartNet policy(actions_, policy_config);
    Rng rng(config_.seed);

    std::vector<ActionEvaluator> lanes;
    lanes.reserve(static_cast<std::size_t>(nlanes));
    for (int l = 0; l < nlanes; ++l) {
        lanes.push_back(factory_(l));
        require(lanes.back() != nullptr, "factory returned null evaluator");
    }

    // Parallel-region accounting: busy time summed over every evaluation
    // task vs coordinator wall time across the fan-out barriers. Recorded
    // at every lane count — the workers=1 busy total is the Amdahl "B" the
    // search bench projects multi-core speedup from.
    std::atomic<std::int64_t> busy_us{0};
    std::int64_t fanout_wall_us = 0;

    // Fan one batch of candidate actions out over the lanes, then replay
    // any tasks lost to an injected worker crash on freshly respawned
    // evaluators (same task order — identical results).
    auto run_batch = [&](std::span<const std::vector<float>> tasks) {
        EvalBatch batch;
        batch.tasks = tasks;
        batch.lanes = lanes;
        batch.faults = nlanes > 1;
        batch.acc.assign(tasks.size(), 0.0);
        batch.error.assign(tasks.size(), nullptr);
        batch.lost.assign(tasks.size(), 0);
        batch.busy_us = &busy_us;

        Stopwatch wall;
        TaskPool::instance().run(nlanes, &eval_lane, &batch);
        fanout_wall_us += static_cast<std::int64_t>(wall.seconds() * 1e6);

        if (std::find(batch.lost.begin(), batch.lost.end(),
                      std::uint8_t{1}) != batch.lost.end()) {
            std::vector<bool> respawned(static_cast<std::size_t>(nlanes),
                                        false);
            for (std::size_t t = 0; t < tasks.size(); ++t) {
                if (batch.lost[t] == 0) continue;
                const auto lane =
                    static_cast<std::size_t>(static_cast<int>(t) % nlanes);
                if (!respawned[lane]) {
                    respawned[lane] = true;
                    lanes[lane] = factory_(static_cast<int>(lane));
                    require(lanes[lane] != nullptr,
                            "factory returned null evaluator");
                    obs::count("search.worker_respawns");
                    log_warn("search: respawned worker lane " +
                             std::to_string(lane) + " after injected crash");
                }
                Stopwatch watch;
                batch.acc[t] = lanes[lane](tasks[t]);
                busy_us.fetch_add(
                    static_cast<std::int64_t>(watch.seconds() * 1e6),
                    std::memory_order_relaxed);
            }
        }
        for (const auto& err : batch.error) {
            if (err != nullptr) std::rethrow_exception(err);
        }
        return std::move(batch.acc);
    };

    // Accuracy of every action evaluated so far. Evaluators are pure
    // functions of the action, so a repeated action (the converged
    // inference action, a re-drawn sample) is looked up instead of
    // re-evaluated, and the trace stays bit-identical.
    std::map<ActionKey, double> memo;

    SearchResult result;
    double moving_avg = 0.0;
    bool moving_init = false;

    std::vector<float> best_action;
    double best_reward = -1e30;

    for (int iter = 0; iter < config_.max_iters; ++iter) {
        obs::Span iter_span("search.iteration", "search");

        // Draw everything this iteration needs before evaluating anything:
        // keep probabilities, then the k samples (historical stream order).
        const std::vector<float> probs = policy.probs(rng);
        std::vector<std::vector<float>> samples;
        samples.reserve(static_cast<std::size_t>(config_.monte_carlo_k));
        for (int s = 0; s < config_.monte_carlo_k; ++s) {
            samples.push_back(sample_action(probs, rng, config_.min_keep));
        }

        // Task 0 is the thresholded inference action (the baseline of
        // Eq. 9–10); tasks 1..k are the Monte-Carlo samples of Eq. 6.
        std::vector<std::vector<float>> tasks;
        tasks.reserve(1 + samples.size());
        tasks.push_back(
            inference_action(probs, config_.threshold, config_.min_keep));
        for (auto& s : samples) tasks.push_back(std::move(s));

        // Only distinct actions the memo has not seen go to the lanes; the
        // fan-out is skipped when every task hits.
        std::vector<const double*> task_slots;
        std::vector<std::vector<float>> fresh;
        std::vector<double*> fresh_slots;
        for (const auto& task : tasks) {
            const auto [slot, inserted] = memo.try_emplace(pack_action(task), 0.0);
            if (inserted) {
                fresh.push_back(task);
                fresh_slots.push_back(&slot->second);
            }
            task_slots.push_back(&slot->second);
        }
        if (!fresh.empty()) {
            const std::vector<double> fresh_acc = run_batch(fresh);
            for (std::size_t i = 0; i < fresh.size(); ++i)
                *fresh_slots[i] = fresh_acc[i];
        }
        std::vector<double> acc;
        for (const double* slot : task_slots) acc.push_back(*slot);

        const auto& infer = tasks[0];
        const int infer_l0 = pruning::l0_norm(infer);
        const double infer_reward =
            reward(acc[0], acc_orig_, actions_, infer_l0, config_.speedup);

        double baseline = 0.0;
        switch (config_.baseline) {
        case BaselineMode::kInferenceAction: baseline = infer_reward; break;
        case BaselineMode::kMovingAverage:
            baseline = moving_init ? moving_avg : 0.0;
            break;
        case BaselineMode::kNone: baseline = 0.0; break;
        }

        // Ordered reduction: samples in draw order, then the inference
        // action — the float-accumulation order of the sequential loop.
        std::vector<float> grad(static_cast<std::size_t>(actions_), 0.0f);
        double mean_sample_reward = 0.0;
        for (int s = 0; s < config_.monte_carlo_k; ++s) {
            const auto& action = tasks[static_cast<std::size_t>(1 + s)];
            const double r =
                reward(acc[static_cast<std::size_t>(1 + s)], acc_orig_,
                       actions_, pruning::l0_norm(action), config_.speedup);
            mean_sample_reward += r;
            accumulate_policy_gradient(probs, action, r - baseline,
                                       1.0 / config_.monte_carlo_k, grad);
            if (r > best_reward) {
                best_reward = r;
                best_action.assign(action.begin(), action.end());
            }
        }
        mean_sample_reward /= config_.monte_carlo_k;
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

        if (obs::enabled()) {
            obs::count("search.iterations");
            obs::count("search.action_evaluations",
                       static_cast<std::int64_t>(fresh.size()));
            obs::count("search.memo_hits",
                       static_cast<std::int64_t>(tasks.size() - fresh.size()));
            obs::gauge_set("search.reward", infer_reward);
            obs::gauge_set("search.l0", infer_l0);
            obs::gauge_set("search.baseline", baseline);
            obs::gauge_set("search.mean_sample_reward", mean_sample_reward);
        }

        // Convergence: the inference reward stays within stable_eps across
        // the stability window ("nearly constant loss and reward").
        if (static_cast<int>(result.reward_history.size()) >= config_.stable_window) {
            const auto begin =
                result.reward_history.end() - config_.stable_window;
            const auto [mn, mx] = std::minmax_element(begin, result.reward_history.end());
            if (*mx - *mn < config_.stable_eps) break;
        }
    }

    // Final decision: the converged inference action. Fall back to the best
    // sampled action if the policy collapsed to a worse point. These two
    // lookups are inherently serial, so a miss evaluates inline on lane 0
    // and stays out of the parallel-region accounting. The second one
    // always hits: both candidates were evaluated before.
    auto serial_lookup = [&](const std::vector<float>& action) {
        const auto [slot, inserted] = memo.try_emplace(pack_action(action), 0.0);
        if (inserted) slot->second = lanes[0](action);
        if (obs::enabled()) {
            obs::count(inserted ? "search.action_evaluations"
                                : "search.memo_hits");
        }
        return slot->second;
    };
    const auto final_probs = policy.probs(rng);
    auto final_action =
        inference_action(final_probs, config_.threshold, config_.min_keep);
    double final_r = reward(serial_lookup(final_action), acc_orig_, actions_,
                            pruning::l0_norm(final_action), config_.speedup);
    if (!best_action.empty() && best_reward > final_r) {
        final_action = best_action;
        final_r = best_reward;
    }
    result.inception_accuracy = serial_lookup(final_action);
    result.keep = pruning::keep_from_mask(final_action);

    result.workers = nlanes;
    const auto busy = static_cast<double>(busy_us.load());
    if (nlanes > 1 && fanout_wall_us > 0) {
        result.parallel_efficiency = std::clamp(
            busy / (static_cast<double>(fanout_wall_us) * nlanes), 0.0, 1.0);
    }

    if (obs::enabled()) {
        obs::count("parallel.busy_us", busy_us.load());
        obs::count("parallel.fanout_wall_us", fanout_wall_us);
        obs::gauge_set("search.parallel_efficiency",
                       result.parallel_efficiency);
        obs::gauge_set("search.workers", nlanes);

        obs::SearchTrace trace;
        trace.label = label;
        trace.actions = actions_;
        trace.speedup = config_.speedup;
        trace.reward_history = result.reward_history;
        trace.l0_history = result.l0_history;
        trace.iterations = result.iterations;
        trace.inception_accuracy = result.inception_accuracy;
        trace.elapsed_s = run_watch.seconds();
        trace.workers = result.workers;
        trace.parallel_efficiency = result.parallel_efficiency;
        obs::RunReport::global().add_search(std::move(trace));
    }
    return result;
}

} // namespace hs::core
