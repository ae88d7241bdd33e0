#include "core/model_pruner.h"

#include <cstdio>
#include <filesystem>
#include <future>
#include <numeric>
#include <sstream>

#include "models/summary.h"
#include "nn/conv2d.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "pruning/mask.h"
#include "pruning/surgery.h"
#include "util/fsio.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hs::core {
namespace {

/// Per-lane evaluators over one conv layer: apply the action as an output
/// mask and score the model on the reward batch. The layers below the
/// masked conv never change during the search, so their output is computed
/// once (on the live net — every lane's weights are bitwise equal, so the
/// prefix is shared) and only the suffix is replayed per action — the
/// dominant cost saving of the reward loop. Lane 0 evaluates on the live
/// net exactly as the historical sequential evaluator did; lanes >= 1 own
/// a deep clone each, so concurrent evaluations never share mutable state
/// and every lane produces bit-identical accuracies.
EvaluatorFactory make_layer_evaluator_factory(nn::Sequential& net,
                                              int conv_position,
                                              const data::Batch& reward_batch) {
    auto prefix = std::make_shared<Tensor>(
        net.forward_range(reward_batch.images, 0, conv_position, false));
    auto labels = std::make_shared<std::vector<int>>(reward_batch.labels);
    return [&net, conv_position, prefix, labels](int lane) -> StochasticEvaluator {
        if (lane == 0) {
            auto& conv = net.layer_as<nn::Conv2d>(conv_position);
            return [&net, &conv, conv_position, prefix,
                    labels](std::span<const float> action, Rng&) {
                conv.set_output_mask(action);
                const Tensor logits =
                    net.forward_range(*prefix, conv_position, net.size(), false);
                return nn::accuracy(logits, *labels);
            };
        }
        // The clone is taken when the search builds (or respawns) the lane,
        // i.e. from the coordinator with no evaluation in flight; any mask
        // it inherits is overwritten by set_output_mask below.
        auto clone = std::make_shared<nn::Sequential>(net);
        return [clone, conv_position, prefix,
                labels](std::span<const float> action, Rng&) {
            clone->layer_as<nn::Conv2d>(conv_position).set_output_mask(action);
            const Tensor logits =
                clone->forward_range(*prefix, conv_position, clone->size(), false);
            return nn::accuracy(logits, *labels);
        };
    };
}

// ---------------------------------------------------------------------------
// Resumable checkpoints. Layout inside config.checkpoint_dir:
//   model_layer_<i>.bin  weights + buffers after layer i (atomic, CRC'd)
//   state.txt            which model file is current, the per-conv widths
//                        needed to rebuild the pruned architecture, and the
//                        trace rows completed so far (atomic)
// The model file for layer i is written first, then state.txt flips to it;
// a crash in either window leaves the previous (model, state) pair intact
// and the run resumes at the first layer not covered by state.txt.

struct ResumeState {
    int next_layer = 0;
    std::string model_file;
    std::vector<int> widths;
    std::vector<pruning::LayerTrace> trace;
};

std::string state_path(const std::string& dir) { return dir + "/state.txt"; }

std::vector<int> conv_widths(models::VggModel& model) {
    std::vector<int> widths;
    widths.reserve(model.conv_indices.size());
    for (const int idx : model.conv_indices)
        widths.push_back(model.net.layer_as<nn::Conv2d>(idx).out_channels());
    return widths;
}

std::string render_state(const ResumeState& st) {
    std::ostringstream out;
    out.precision(17); // doubles must round-trip bit-exactly for the trace
    out << "HSRESUME 1\n";
    out << "next_layer " << st.next_layer << "\n";
    out << "model " << st.model_file << "\n";
    out << "widths " << st.widths.size();
    for (const int w : st.widths) out << ' ' << w;
    out << "\n";
    out << "trace " << st.trace.size() << "\n";
    for (const auto& row : st.trace)
        out << row.name << ' ' << row.maps_before << ' ' << row.maps_after
            << ' ' << row.params << ' ' << row.flops << ' '
            << row.acc_inception << ' ' << row.acc_finetuned << ' '
            << row.search_iterations << "\n";
    return std::move(out).str();
}

ResumeState parse_state(const std::string& text, const std::string& source) {
    std::istringstream in(text);
    std::string tag;
    int version = 0;
    in >> tag >> version;
    require(!in.fail() && tag == "HSRESUME" && version == 1,
            "corrupt resume state '" + source + "': bad header");
    ResumeState st;
    auto expect = [&](const char* key) {
        std::string k;
        in >> k;
        require(!in.fail() && k == key, "corrupt resume state '" + source +
                                           "': expected '" + key + "', got '" +
                                           k + "'");
    };
    expect("next_layer");
    in >> st.next_layer;
    expect("model");
    in >> st.model_file;
    expect("widths");
    std::size_t n = 0;
    in >> n;
    st.widths.resize(n);
    for (auto& w : st.widths) in >> w;
    expect("trace");
    std::size_t rows = 0;
    in >> rows;
    require(!in.fail(), "corrupt resume state '" + source + "': bad counts");
    st.trace.resize(rows);
    for (auto& row : st.trace)
        in >> row.name >> row.maps_before >> row.maps_after >> row.params >>
            row.flops >> row.acc_inception >> row.acc_finetuned >>
            row.search_iterations;
    require(!in.fail(), "corrupt resume state '" + source +
                            "': truncated trace table");
    require(st.next_layer >= 0 &&
                st.trace.size() == static_cast<std::size_t>(st.next_layer),
            "corrupt resume state '" + source +
                "': trace rows do not match next_layer");
    return st;
}

/// Re-apply the recorded surgery to a freshly built (unpruned) model so
/// the checkpoint weights fit. Which map indices are kept is irrelevant —
/// the checkpoint supplies every weight — only the widths must match.
void reapply_widths(models::VggModel& model, const std::vector<int>& widths,
                    const std::string& source) {
    require(widths.size() == model.conv_indices.size(),
            "resume state '" + source + "' has " +
                std::to_string(widths.size()) + " conv widths, model has " +
                std::to_string(model.conv_indices.size()) + " convs");
    pruning::ConvChain chain{&model.net, model.conv_indices,
                             model.classifier_index};
    for (std::size_t i = 0; i < widths.size(); ++i) {
        auto& conv =
            model.net.layer_as<nn::Conv2d>(model.conv_indices[i]);
        const int current = conv.out_channels();
        require(widths[i] >= 1 && widths[i] <= current,
                "resume state '" + source + "': conv " + std::to_string(i) +
                    " width " + std::to_string(widths[i]) +
                    " is impossible for a fresh model with " +
                    std::to_string(current) + " maps");
        if (widths[i] == current) continue;
        std::vector<int> keep(static_cast<std::size_t>(widths[i]));
        std::iota(keep.begin(), keep.end(), 0);
        pruning::prune_feature_maps(chain, static_cast<int>(i), keep);
    }
}

/// Commit the checkpoint after layer next_layer-1: model file first, then
/// state.txt flips to it (the write order crash recovery relies on).
void write_checkpoint(const std::string& dir, models::VggModel& model,
                      int next_layer,
                      const std::vector<pruning::LayerTrace>& trace) {
    ResumeState st;
    st.next_layer = next_layer;
    st.model_file = "model_layer_" + std::to_string(next_layer - 1) + ".bin";
    st.widths = conv_widths(model);
    st.trace = trace;
    atomic_write_file(dir + "/" + st.model_file,
                      nn::serialize_parameters(model.net));
    atomic_write_file(state_path(dir), render_state(st));
    // The previous layer's model file is now unreferenced; removing it is
    // best-effort (a crash right here just leaves a harmless orphan).
    if (next_layer >= 2)
        std::remove(
            (dir + "/model_layer_" + std::to_string(next_layer - 2) + ".bin")
                .c_str());
}

} // namespace

SearchResult headstart_search_conv(nn::Sequential& net, int conv_position,
                                   const data::SyntheticImageDataset& dataset,
                                   const HeadStartConfig& config) {
    auto& conv = net.layer_as<nn::Conv2d>(conv_position);

    const data::Batch reward_batch =
        data::sample_subset(dataset.train(), config.reward_subset, config.seed + 5);
    const double acc_orig = nn::evaluate_batch(net, reward_batch);

    SearchConfig search = config.search;
    search.workers = config.workers;
    search.seed = config.seed * 131 + static_cast<std::uint64_t>(conv_position);
    if (search.label.empty())
        search.label = "conv@" + std::to_string(conv_position);
    ActionSearch driver(conv.out_channels(),
                        make_layer_evaluator_factory(net, conv_position, reward_batch),
                        std::max(acc_orig, 1e-3), search);
    SearchResult result = driver.run();
    conv.clear_output_mask();
    return result;
}

SearchResult headstart_search_layer(models::VggModel& model, int which,
                                    const data::SyntheticImageDataset& dataset,
                                    const HeadStartConfig& config) {
    require(which >= 0 && which < model.num_convs(), "conv position out of range");
    return headstart_search_conv(
        model.net, model.conv_indices[static_cast<std::size_t>(which)], dataset,
        config);
}

HeadStartResult headstart_prune_vgg(models::VggModel& model,
                                    const data::SyntheticImageDataset& dataset,
                                    const HeadStartConfig& config) {
    data::DataLoader train_loader(dataset.train(), config.batch_size,
                                  /*shuffle=*/true, config.seed + 1);
    const data::Batch reward_batch =
        data::sample_subset(dataset.train(), config.reward_subset, config.seed + 5);
    const Shape input_chw{dataset.config().channels, dataset.config().image_size,
                          dataset.config().image_size};
    pruning::ConvChain chain{&model.net, model.conv_indices,
                             model.classifier_index};

    const std::int64_t conv_params_before = [&] {
        std::int64_t total = 0;
        for (int idx : model.conv_indices)
            total += model.net.layer_as<nn::Conv2d>(idx).weight().value.numel();
        return total;
    }();

    HeadStartResult result;
    const int num_convs = model.num_convs();
    const int last = config.prune_last_conv ? num_convs : num_convs - 1;

    int start_layer = 0;
    if (!config.checkpoint_dir.empty()) {
        std::filesystem::create_directories(config.checkpoint_dir);
        if (std::filesystem::exists(state_path(config.checkpoint_dir))) {
            const std::string sp = state_path(config.checkpoint_dir);
            const ResumeState st = parse_state(read_file(sp), sp);
            require(st.next_layer <= last,
                    "resume state '" + sp + "' covers layer " +
                        std::to_string(st.next_layer) +
                        " but this run prunes only " + std::to_string(last));
            reapply_widths(model, st.widths, sp);
            nn::load_parameters(model.net,
                                config.checkpoint_dir + "/" + st.model_file);
            result.trace = st.trace;
            start_layer = st.next_layer;
            obs::count("headstart.resumes");
            log_info("[headstart] resumed from " + sp + " at layer " +
                     std::to_string(start_layer) + " (" + st.model_file + ")");
        }
    }
    result.start_layer = start_layer;

    // One schedule at every worker count (DESIGN.md §15): acc_orig →
    // search on `workers` lanes → surgery → fine-tune, with the inception
    // evaluation overlapping the fine-tune → acc_finetuned → checkpoint.
    for (int i = start_layer; i < last; ++i) {
        obs::Span layer_span("headstart.layer", "pruning");
        Stopwatch layer_watch;
        auto& conv = model.net.layer_as<nn::Conv2d>(
            model.conv_indices[static_cast<std::size_t>(i)]);
        const int maps_before = conv.out_channels();

        // f_W(D|W): accuracy of the current (already partially pruned and
        // fine-tuned) model before touching this layer.
        const double acc_orig =
            std::max(nn::evaluate_batch(model.net, reward_batch), 1e-3);

        SearchConfig search = config.search;
        search.workers = config.workers;
        search.seed = config.seed * 131 + static_cast<std::uint64_t>(i);
        search.label = model.conv_names[static_cast<std::size_t>(i)];
        ActionSearch driver(
            maps_before,
            make_layer_evaluator_factory(
                model.net, model.conv_indices[static_cast<std::size_t>(i)],
                reward_batch),
            acc_orig, search);
        const SearchResult sr = driver.run();
        conv.clear_output_mask();

        pruning::prune_feature_maps(chain, i, sr.keep);

        pruning::LayerTrace trace;
        trace.name = model.conv_names[static_cast<std::size_t>(i)];
        trace.maps_before = maps_before;
        trace.maps_after = static_cast<int>(sr.keep.size());
        trace.search_iterations = sr.iterations;

        // The inception accuracy runs on a snapshot of the post-surgery
        // weights while fine-tuning mutates the live net. Per-image forwards
        // are batch- and schedule-independent, so the value is bit-identical
        // to evaluating the live net before fine-tuning.
        auto snapshot = std::make_shared<nn::Sequential>(model.net);
        std::future<double> inception_future =
            std::async(std::launch::async, [snapshot, &dataset] {
                return nn::evaluate(*snapshot, dataset.test());
            });

        // Fine-tune with divergence protection: a NaN/Inf loss rolls the
        // layer back to its post-surgery weights and retries with a
        // decayed learning rate; after max_finetune_retries the layer is
        // skipped (surgery kept, fine-tune abandoned) so one unstable
        // layer cannot kill a whole-model run.
        const std::string pre_finetune = nn::serialize_parameters(model.net);
        float lr = config.lr;
        bool finetuned = false;
        for (int attempt = 0; attempt <= config.max_finetune_retries;
             ++attempt) {
            try {
                (void)nn::finetune(model.net, train_loader,
                                   config.finetune_epochs, lr,
                                   config.weight_decay);
                finetuned = true;
                break;
            } catch (const nn::NonFiniteLoss& e) {
                nn::deserialize_parameters(model.net, pre_finetune);
                if (attempt == config.max_finetune_retries) break;
                lr *= config.retry_lr_decay;
                ++result.finetune_retries;
                obs::count("headstart.finetune_retries");
                log_warn("[headstart] " + trace.name + ": " +
                         std::string(e.what()) +
                         " — rolled back, retrying with lr=" +
                         std::to_string(lr));
            }
        }
        if (!finetuned) {
            ++result.layers_skipped;
            obs::count("headstart.layers_skipped");
            log_warn("[headstart] " + trace.name + ": fine-tune diverged " +
                     std::to_string(config.max_finetune_retries + 1) +
                     " times — keeping surgery, skipping fine-tune");
        }
        {
            Stopwatch stall;
            trace.acc_inception = inception_future.get();
            obs::observe_hdr_us(
                "search.pipeline_stall_us",
                static_cast<std::int64_t>(stall.seconds() * 1e6));
        }
        trace.acc_finetuned =
            nn::evaluate_parallel(model.net, dataset.test(), config.workers);

        const auto report = models::summarize(model.net, input_chw);
        trace.params = report.params;
        trace.flops = report.flops;
        result.trace.push_back(trace);

        if (!config.checkpoint_dir.empty())
            write_checkpoint(config.checkpoint_dir, model, i + 1, result.trace);

        if (obs::enabled()) {
            obs::count("headstart.layers_pruned");
            obs::count("headstart.maps_removed",
                       maps_before - trace.maps_after);
            obs::gauge_set("headstart.params", static_cast<double>(report.params));
            obs::gauge_set("headstart.flops", static_cast<double>(report.flops));
            obs::LayerRow row;
            row.pipeline = "headstart";
            row.name = trace.name;
            row.units_before = maps_before;
            row.units_after = trace.maps_after;
            row.params = trace.params;
            row.flops = trace.flops;
            row.acc_inception = trace.acc_inception;
            row.acc_finetuned = trace.acc_finetuned;
            row.search_iterations = trace.search_iterations;
            row.elapsed_s = layer_watch.seconds();
            obs::RunReport::global().add_layer(std::move(row));
        }

        log_info("[headstart] " + trace.name + ": " + std::to_string(maps_before) +
                 " -> " + std::to_string(trace.maps_after) + " maps in " +
                 std::to_string(sr.iterations) +
                 " iters, inc=" + std::to_string(trace.acc_inception) +
                 " ft=" + std::to_string(trace.acc_finetuned));
    }

    const auto report = models::summarize(model.net, input_chw);
    result.params = report.params;
    result.flops = report.flops;
    result.final_accuracy =
        nn::evaluate_parallel(model.net, dataset.test(), config.workers);

    std::int64_t conv_params_after = 0;
    for (int idx : model.conv_indices)
        conv_params_after += model.net.layer_as<nn::Conv2d>(idx).weight().value.numel();
    result.compression_ratio = static_cast<double>(conv_params_after) /
                               static_cast<double>(conv_params_before);
    return result;
}

} // namespace hs::core
