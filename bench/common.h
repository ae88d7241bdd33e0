#pragma once

// Shared operating points for the paper-reproduction benches.
//
// Every bench binary is self-contained and deterministic (fixed seeds), so
// re-running any of them reproduces the same table. Three scales exist,
// selected by HEADSTART_BENCH_SCALE:
//  * "smoke" — seconds per bench; validates the harness end to end;
//  * "quick" (default) — minutes per bench on a 2-core CPU box;
//  * "full"  — larger datasets/models/epochs, closer to the paper's
//    operating point (hours).
// The *shape* of each result (method ordering, approximate factors) is the
// reproduction target at every scale; see EXPERIMENTS.md.

#include <cstdlib>
#include <string>

#include "core/model_pruner.h"
#include "data/synthetic.h"
#include "models/vgg.h"
#include "pruning/pipeline.h"

namespace hs::bench {

/// Bench operating point.
enum class Scale { kSmoke, kQuick, kFull };

/// Scale selector read from HEADSTART_BENCH_SCALE ("smoke"|"quick"|"full").
inline Scale scale() {
    const char* env = std::getenv("HEADSTART_BENCH_SCALE");
    if (env == nullptr) return Scale::kQuick;
    const std::string s(env);
    if (s == "full") return Scale::kFull;
    if (s == "smoke") return Scale::kSmoke;
    return Scale::kQuick;
}

/// Name of the running scale, as recorded in every run report's
/// `config.scale`.
inline const char* scale_name() {
    switch (scale()) {
    case Scale::kFull: return "full";
    case Scale::kQuick: return "quick";
    case Scale::kSmoke: return "smoke";
    }
    return "quick";
}

inline bool full_scale() { return scale() == Scale::kFull; }

/// CIFAR-100 stand-in at bench scale.
inline data::SyntheticConfig cifar_bench() {
    data::SyntheticConfig cfg = data::cifar100_like();
    switch (scale()) {
    case Scale::kFull:
        cfg.num_classes = 40;
        cfg.image_size = 32;
        cfg.train_per_class = 120;
        cfg.test_per_class = 30;
        break;
    case Scale::kQuick:
        cfg.num_classes = 18;
        cfg.image_size = 16;
        cfg.train_per_class = 45;
        cfg.test_per_class = 15;
        break;
    case Scale::kSmoke:
        cfg.num_classes = 6;
        cfg.image_size = 16;
        cfg.train_per_class = 15;
        cfg.test_per_class = 8;
        break;
    }
    return cfg;
}

/// CUB-200 stand-in (fine-grained) at bench scale.
inline data::SyntheticConfig cub_bench() {
    data::SyntheticConfig cfg = data::cub200_like();
    switch (scale()) {
    case Scale::kFull:
        cfg.num_classes = 40;
        cfg.image_size = 32;
        cfg.train_per_class = 60;
        cfg.test_per_class = 20;
        break;
    case Scale::kQuick:
        cfg.num_classes = 10;
        cfg.image_size = 16;
        cfg.train_per_class = 50;
        cfg.test_per_class = 20;
        break;
    case Scale::kSmoke:
        cfg.num_classes = 6;
        cfg.image_size = 16;
        cfg.train_per_class = 15;
        cfg.test_per_class = 8;
        break;
    }
    return cfg;
}

/// Scaled VGG-16 matching a dataset config.
inline models::VggConfig vgg_bench(const data::SyntheticConfig& data_cfg) {
    models::VggConfig cfg;
    cfg.input_size = data_cfg.image_size;
    cfg.num_classes = data_cfg.num_classes;
    cfg.width_scale = scale() == Scale::kFull    ? 0.25
                      : scale() == Scale::kQuick ? 0.125
                                                 : 0.0625;
    cfg.seed = 42;
    return cfg;
}

/// Epochs used to pre-train the unpruned base model.
inline int base_epochs() {
    switch (scale()) {
    case Scale::kFull: return 30;
    case Scale::kQuick: return 20;
    case Scale::kSmoke: return 4;
    }
    return 14;
}

/// Fine-tuning epochs after pruning each layer (paper: 40 at full scale).
inline int finetune_epochs() {
    switch (scale()) {
    case Scale::kFull: return 8;
    case Scale::kQuick: return 2;
    case Scale::kSmoke: return 1;
    }
    return 2;
}

/// Pre-train a VGG base model on `dataset` with the paper's optimizer
/// settings; returns final test accuracy.
double pretrain(models::VggModel& model, const data::SyntheticImageDataset& dataset,
                int epochs);

/// HeadStart configuration at bench scale for the given preset speedup.
inline core::HeadStartConfig headstart_bench(double speedup) {
    core::HeadStartConfig cfg;
    cfg.search.speedup = speedup;
    cfg.search.monte_carlo_k = 3;   // paper: k = 3
    cfg.search.threshold = 0.5f;    // paper: t = 0.5
    switch (scale()) {
    case Scale::kFull:
        cfg.search.max_iters = 60;
        cfg.search.stable_window = 12;
        cfg.search.policy.lr = 1e-3f; // the paper's schedule
        cfg.reward_subset = 192;
        break;
    case Scale::kQuick:
        cfg.search.max_iters = 32;
        cfg.search.stable_window = 8;
        cfg.search.policy.lr = 5e-3f; // hotter lr compensates fewer iters
        cfg.reward_subset = 96;
        break;
    case Scale::kSmoke:
        cfg.search.max_iters = 8;
        cfg.search.stable_window = 4;
        cfg.search.policy.lr = 5e-3f;
        cfg.reward_subset = 48;
        break;
    }
    cfg.finetune_epochs = finetune_epochs();
    if (scale() == Scale::kQuick) cfg.lr = 2e-3f;
    cfg.seed = 47;
    return cfg;
}

/// Baseline pipeline configuration at bench scale.
inline pruning::PipelineConfig pipeline_bench(double speedup) {
    pruning::PipelineConfig cfg;
    cfg.keep_ratio = 1.0 / speedup;
    cfg.finetune_epochs = finetune_epochs();
    if (scale() == Scale::kQuick) cfg.lr = 2e-3f;
    cfg.sample_size = scale() == Scale::kFull ? 192 : 96;
    cfg.seed = 31;
    return cfg;
}

/// Percentage formatter "76.23".
std::string pct(double fraction);

/// Millions formatter with two decimals ("9.30").
std::string millions(std::int64_t count);

/// Observability context of one bench invocation (see src/obs/obs.h).
struct BenchRun {
    std::string name;       ///< "fig3", "table1", …
    std::string json_path;  ///< empty when --json was not given
};

/// True if `flag` appears anywhere in argv (order-independent flags).
bool has_flag(int argc, char** argv, const char* flag);

/// Parse `--json <path>` (and the env-armed HS_OBS state), force-enable
/// observability when a report was requested, and stamp the run config
/// (bench name, scale, core count) into the global run report. Call first
/// in main().
BenchRun bench_run(const char* name, int argc, char** argv);

/// Record total wall-clock and write the run report to --json's path (if
/// given). Call last in main().
void bench_finish(const BenchRun& run, double total_seconds);

} // namespace hs::bench
