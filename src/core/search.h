#pragma once

// Generic REINFORCE action search (Section III.C). Both pruning
// granularities — feature maps of one conv layer (VGG-style) and residual
// blocks (ResNet) — reduce to the same problem: learn a Bernoulli policy
// over `actions` binary decisions that maximizes
//   R(A) = log(acc(A)/acc_orig + 1) − |C/‖A‖₀ − sp|.
// The search owns a HeadStartNet policy; the caller supplies the accuracy
// evaluator (which applies the action to the model being pruned).
//
// Parallel evaluation (DESIGN.md §15). Every iteration scores 1 + k
// candidate actions (the thresholded inference action plus k Monte-Carlo
// samples), and none of those evaluations consumes the policy RNG — so
// the coordinator draws all actions up front in the exact sequential
// order, fans the evaluations across `config.workers` lanes (hs::TaskPool),
// and reduces rewards/gradients back in sample order. Results are
// therefore bit-identical at every worker count: `workers = 1` reproduces
// the historical sequential trace, and fixed-N runs are deterministic
// run-to-run. Each lane owns a private evaluation context built by the
// caller's EvaluatorFactory (a deep model clone for the built-in pruners).
//
// Evaluators must be pure functions of the action: the search memoizes
// accuracies per action, so each distinct action is evaluated at most once
// per search and only the distinct misses of an iteration fan out.

#include <functional>
#include <string>
#include <vector>

#include "core/headstart_net.h"
#include "core/reward.h"

namespace hs::core {

/// Variance-reduction baseline choice (Eq. 8–9; kInferenceAction is the
/// paper's choice, the others exist for the ablation study).
enum class BaselineMode { kInferenceAction, kMovingAverage, kNone };

/// Hyper-parameters of one per-layer (or per-model, for blocks) search.
struct SearchConfig {
    double speedup = 2.0;      ///< sp, the preset speedup (Eq. 1/3)
    int monte_carlo_k = 3;     ///< k action samples per iteration (Eq. 6)
    float threshold = 0.5f;    ///< t of the inference action (Eq. 10)
    int max_iters = 30;        ///< hard iteration cap
    int stable_window = 8;     ///< reward-stability window (iterations)
    double stable_eps = 5e-3;  ///< max reward spread within the window
    int min_keep = 1;          ///< never prune below this many units
    BaselineMode baseline = BaselineMode::kInferenceAction;
    PolicyConfig policy;
    std::uint64_t seed = 11;
    /// Evaluation fan-out lanes. 1 = fully sequential (no pool traffic);
    /// N > 1 spreads the per-iteration candidate evaluations over N lanes
    /// with bit-identical results (requires an EvaluatorFactory — a plain
    /// ActionEvaluator is a single shared context and clamps this to 1).
    int workers = 1;
    /// Observability label of this search ("conv4_1", "blocks", …); shows
    /// up in trace spans and the run report. Empty → "search".
    std::string label;
};

/// Outcome of a search.
struct SearchResult {
    std::vector<int> keep;               ///< kept unit indices (sorted)
    std::vector<double> reward_history;  ///< R(A^l) per iteration
    std::vector<int> l0_history;         ///< ‖A^l‖₀ per iteration
    double inception_accuracy = 0.0;     ///< acc(A^l) at convergence
    int iterations = 0;
    int workers = 1;                     ///< lanes actually used
    /// Busy/(wall × workers) over the fan-out regions (1.0 when workers=1).
    double parallel_efficiency = 1.0;
};

/// Evaluator: accuracy (in [0,1]) of the model under a binary action. It
/// must return the same value whenever it sees the same action (results
/// are memoized per search).
using ActionEvaluator = std::function<double(std::span<const float>)>;

/// Builds lane `lane`'s private evaluator (0 ≤ lane < workers). Evaluators
/// from different lanes run concurrently, so each must own its state (the
/// built-in pruners deep-clone the model per lane); all lanes must agree
/// bit-for-bit on every action.
using EvaluatorFactory = std::function<ActionEvaluator(int lane)>;

/// REINFORCE search driver.
class ActionSearch {
public:
    /// Single shared evaluation context: `config.workers` is clamped to 1.
    /// `acc_orig` is f_W(D|W): the unpruned accuracy on the reward set.
    ActionSearch(int actions, ActionEvaluator evaluate, double acc_orig,
                 const SearchConfig& config);

    /// Parallel-capable constructor: lane l evaluates with factory(l).
    ActionSearch(int actions, EvaluatorFactory factory, double acc_orig,
                 const SearchConfig& config);

    /// Run until the inference-action reward is stable or max_iters.
    [[nodiscard]] SearchResult run();

private:
    int actions_;
    EvaluatorFactory factory_;
    double acc_orig_;
    SearchConfig config_;
};

} // namespace hs::core
