#include "core/block_pruner.h"

#include <algorithm>

#include "nn/trainer.h"
#include "obs/obs.h"
#include "pruning/mask.h"
#include "pruning/resnet_surgery.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hs::core {

BlockPruneResult headstart_prune_blocks(models::ResNetModel& model,
                                        const data::SyntheticImageDataset& dataset,
                                        const BlockPruneConfig& config) {
    obs::Span span("headstart.blocks", "pruning");
    Stopwatch watch;
    const auto droppable = pruning::droppable_blocks(model);
    require(!droppable.empty(), "no droppable blocks in this ResNet");
    const int total_blocks = model.num_blocks();
    const int fixed = total_blocks - static_cast<int>(droppable.size());

    const data::Batch reward_batch =
        data::sample_subset(dataset.train(), config.reward_subset, config.seed + 5);
    const double acc_orig =
        std::max(nn::evaluate_batch(model.net, reward_batch), 1e-3);

    // The preset speedup is defined over ALL blocks (C = total, Eq. 3); the
    // action vector only covers the droppable ones, so rescale the target:
    // target kept total = C/sp  =>  target kept droppable = C/sp − fixed.
    const double target_total_kept =
        static_cast<double>(total_blocks) / config.search.speedup;
    const double target_droppable_kept =
        std::max(1.0, target_total_kept - static_cast<double>(fixed));
    SearchConfig search = config.search;
    search.speedup = std::max(
        1.0, static_cast<double>(droppable.size()) / target_droppable_kept);
    search.seed = config.seed * 977 + 3;
    search.label = "blocks";

    // Per-lane evaluation contexts (DESIGN.md §15): lane 0 gates the live
    // model exactly as the historical sequential evaluator did; lanes >= 1
    // gate a private deep copy each (ResNetModel is a value type — its
    // Sequential deep-copies), so the Monte-Carlo rollouts of one search
    // iteration evaluate concurrently with bit-identical accuracies.
    auto gated_accuracy = [&droppable, &reward_batch,
                           total_blocks](models::ResNetModel& m,
                                         std::span<const float> action) {
        std::vector<float> gates(static_cast<std::size_t>(total_blocks), 1.0f);
        for (std::size_t i = 0; i < droppable.size(); ++i)
            gates[static_cast<std::size_t>(droppable[i])] = action[i];
        pruning::apply_block_gates(m, gates);
        return nn::evaluate_batch(m.net, reward_batch);
    };
    EvaluatorFactory factory = [&model,
                                gated_accuracy](int lane) -> ActionEvaluator {
        if (lane == 0) {
            return [&model, gated_accuracy](std::span<const float> action) {
                return gated_accuracy(model, action);
            };
        }
        auto copy = std::make_shared<models::ResNetModel>(model);
        return [copy, gated_accuracy](std::span<const float> action) {
            return gated_accuracy(*copy, action);
        };
    };

    ActionSearch driver(static_cast<int>(droppable.size()), factory, acc_orig,
                        search);
    const SearchResult sr = driver.run();

    // Materialize the converged decision on the model's gates.
    std::vector<float> final_gates(static_cast<std::size_t>(total_blocks), 0.0f);
    for (int b = 0; b < total_blocks; ++b) {
        const bool is_droppable =
            std::find(droppable.begin(), droppable.end(), b) != droppable.end();
        if (!is_droppable) final_gates[static_cast<std::size_t>(b)] = 1.0f;
    }
    for (int kept : sr.keep)
        final_gates[static_cast<std::size_t>(droppable[static_cast<std::size_t>(kept)])] =
            1.0f;
    pruning::apply_block_gates(model, final_gates);

    BlockPruneResult result;
    result.search_iterations = sr.iterations;
    for (int b = 0; b < total_blocks; ++b)
        if (final_gates[static_cast<std::size_t>(b)] != 0.0f)
            result.kept_blocks.push_back(b);

    result.pruned = pruning::remove_dropped_blocks(model);
    result.blocks_per_group = result.pruned.blocks_per_group();
    result.inception_accuracy = nn::evaluate_parallel(
        result.pruned.net, dataset.test(), config.search.workers);

    data::DataLoader loader(dataset.train(), config.batch_size, /*shuffle=*/true,
                            config.seed + 1);
    (void)nn::finetune(result.pruned.net, loader, config.finetune_epochs,
                       config.lr, config.weight_decay);
    result.final_accuracy = nn::evaluate_parallel(
        result.pruned.net, dataset.test(), config.search.workers);

    if (obs::enabled()) {
        obs::count("headstart.blocks_removed",
                   total_blocks - static_cast<int>(result.kept_blocks.size()));
        obs::LayerRow row;
        row.pipeline = "headstart-blocks";
        row.name = "blocks";
        row.units_before = total_blocks;
        row.units_after = static_cast<int>(result.kept_blocks.size());
        row.acc_inception = result.inception_accuracy;
        row.acc_finetuned = result.final_accuracy;
        row.search_iterations = result.search_iterations;
        row.elapsed_s = watch.seconds();
        obs::RunReport::global().add_layer(std::move(row));
    }

    log_info("[headstart-blocks] kept <" +
             std::to_string(result.blocks_per_group[0]) + ", " +
             std::to_string(result.blocks_per_group[1]) + ", " +
             std::to_string(result.blocks_per_group[2]) + "> blocks, inc=" +
             std::to_string(result.inception_accuracy) +
             " ft=" + std::to_string(result.final_accuracy));
    return result;
}

} // namespace hs::core
