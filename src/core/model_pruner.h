#pragma once

// HeadStart whole-model pruning driver for single-branch networks
// (VGG/LeNet): iterate the conv layers bottom-up; for each, run the
// REINFORCE search for the optimal inception, apply the surgery, fine-tune
// (paper Section V.A: fine-tune after every layer, then proceed), and
// record the Table-1-style trace.

#include "core/search.h"
#include "data/synthetic.h"
#include "models/vgg.h"
#include "pruning/pipeline.h"

namespace hs::core {

/// Knobs of the whole-model HeadStart run.
struct HeadStartConfig {
    SearchConfig search;          ///< per-layer RL search settings
    int finetune_epochs = 3;
    int batch_size = 32;
    float lr = 1e-3f;             ///< fine-tuning SGD learning rate
    float weight_decay = 5e-4f;   ///< paper: 5e-4
    int reward_subset = 128;      ///< held-out training images scoring actions
    bool prune_last_conv = false; ///< paper keeps conv5_3 intact
    std::uint64_t seed = 47;

    /// Evaluation fan-out lanes (DESIGN.md §15). Forwarded to every layer
    /// search (Monte-Carlo rollouts evaluate on per-lane model clones) and
    /// to the whole-split accuracy evaluations; the layer loop's schedule
    /// is the same at every count. Results are bit-identical at every
    /// worker count.
    int workers = 1;

    /// Crash safety: when non-empty, model + trace are checkpointed into
    /// this directory after every layer (atomic writes), and a fresh call
    /// with the same unpruned model resumes from the last completed layer.
    std::string checkpoint_dir;
    /// Divergence handling: on a non-finite fine-tune loss the layer is
    /// rolled back to its post-surgery weights and retried with the
    /// learning rate multiplied by `retry_lr_decay`, up to
    /// `max_finetune_retries` times; after that the layer's fine-tune is
    /// skipped with a logged warning.
    int max_finetune_retries = 2;
    float retry_lr_decay = 0.5f;
};

/// Result of pruning a whole VGG-style model with HeadStart.
struct HeadStartResult {
    std::vector<pruning::LayerTrace> trace;
    double final_accuracy = 0.0;
    std::int64_t params = 0;
    std::int64_t flops = 0;
    /// Learnt compression ratio ‖W'‖₀/‖W‖₀ over conv parameters (Eq. 11).
    double compression_ratio = 0.0;
    int start_layer = 0;        ///< first layer processed (>0 = resumed)
    int finetune_retries = 0;   ///< rollback + LR-decay retries taken
    int layers_skipped = 0;     ///< layers whose fine-tune never converged
};

/// Prune `model` in place with HeadStart. `dataset` provides the training
/// split (fine-tuning + reward subset) and the test split (reported
/// accuracies). `model` must be the unpruned architecture even when
/// resuming — the recorded surgery is re-applied before weights load.
[[nodiscard]] HeadStartResult headstart_prune_vgg(
    models::VggModel& model, const data::SyntheticImageDataset& dataset,
    const HeadStartConfig& config);

/// Single-layer search only (no surgery, no fine-tune): used by the
/// Figure 3 experiment. Restores the model's mask state before returning.
[[nodiscard]] SearchResult headstart_search_layer(
    models::VggModel& model, int which, const data::SyntheticImageDataset& dataset,
    const HeadStartConfig& config);

/// Generic single-layer search over any Sequential: `conv_position` is the
/// index of a Conv2d inside `net`. Works for LeNet, custom models, or
/// layers inside residual blocks exposed through a wrapper Sequential.
[[nodiscard]] SearchResult headstart_search_conv(
    nn::Sequential& net, int conv_position,
    const data::SyntheticImageDataset& dataset, const HeadStartConfig& config);

} // namespace hs::core
