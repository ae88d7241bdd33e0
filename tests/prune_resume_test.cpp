// Crash-safe pruning: torn checkpoint writes, resume-from-checkpoint with
// an identical trace prefix, and non-finite-loss rollback with LR-decayed
// retries — acceptance criteria (a) and (b) of the robustness milestone,
// driven through hs::fault.

#include <filesystem>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/model_pruner.h"
#include "fault/fault.h"
#include "nn/trainer.h"
#include "util/error.h"
#include "util/fsio.h"

namespace hs {
namespace {

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

core::HeadStartConfig quick_headstart(double sp) {
    core::HeadStartConfig cfg;
    cfg.search.speedup = sp;
    cfg.search.max_iters = 10;
    cfg.search.stable_window = 4;
    cfg.finetune_epochs = 1;
    cfg.reward_subset = 48;
    return cfg;
}

class PruneResumeTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm(); }
};

// Acceptance (a): tear the layer-1 model checkpoint mid-write. The run
// aborts, the previous (layer-0) checkpoint stays loadable, and a fresh
// call resumes at layer 1 producing the same layer-0 trace row the
// crashed run committed.
TEST_F(PruneResumeTest, TornCheckpointWriteResumesWithIdenticalPrefix) {
    const auto dataset = tiny_dataset();
    // Per-process name: concurrent runs of this suite must not delete
    // each other's checkpoints.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("hs_resume_test_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    // Reference: same seeds, no faults, no checkpoints. Layer 0 of any
    // fresh run is deterministic, so its trace row is the ground truth
    // the resumed run's restored prefix must match bit for bit.
    auto reference = tiny_vgg(dataset.config());
    quick_train(reference.net, dataset, 3);
    const auto ref_result =
        core::headstart_prune_vgg(reference, dataset, quick_headstart(2.0));
    ASSERT_EQ(ref_result.trace.size(), 12u);

    // Crashing run: checkpoint writes go model-then-state per layer, so
    // atomic-write hit 3 is the layer-1 model file. Tear it.
    auto cfg = quick_headstart(2.0);
    cfg.checkpoint_dir = dir;
    auto crashing = tiny_vgg(dataset.config());
    quick_train(crashing.net, dataset, 3);
    fault::arm("fsio.atomic_write=torn:64@3#1");
    EXPECT_THROW((void)core::headstart_prune_vgg(crashing, dataset, cfg),
                 Error);
    fault::disarm();

    // The torn write never replaced anything: state still points at the
    // completed layer-0 checkpoint and the layer-1 file does not exist.
    const std::string state = read_file(dir + "/state.txt");
    EXPECT_NE(state.find("next_layer 1"), std::string::npos) << state;
    EXPECT_NE(state.find("model_layer_0.bin"), std::string::npos) << state;
    EXPECT_TRUE(std::filesystem::exists(dir + "/model_layer_0.bin"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/model_layer_1.bin"));

    // Resume with a fresh unpruned model: picks up at layer 1, restores
    // the committed trace prefix verbatim, and completes the run.
    auto resumed = tiny_vgg(dataset.config());
    quick_train(resumed.net, dataset, 3);
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
    EXPECT_DOUBLE_EQ(got.acc_inception, want.acc_inception);
    EXPECT_DOUBLE_EQ(got.acc_finetuned, want.acc_finetuned);
    EXPECT_EQ(got.search_iterations, want.search_iterations);
    // Completed run flipped the state to the final layer.
    EXPECT_NE(read_file(dir + "/state.txt").find("next_layer 12"),
              std::string::npos);

    std::filesystem::remove_all(dir);
}

// Acceptance (b): one injected NaN gradient during the first fine-tune
// rolls the layer back, decays the LR, and the retry (fault exhausted)
// lets the whole run complete with the retry recorded.
TEST_F(PruneResumeTest, InjectedNanGradRollsBackAndRetries) {
    const auto dataset = tiny_dataset();
    auto model = tiny_vgg(dataset.config());
    quick_train(model.net, dataset, 3);

    fault::arm("trainer.nan_grad=nan@1#1");
    const auto result =
        core::headstart_prune_vgg(model, dataset, quick_headstart(2.0));
    EXPECT_EQ(result.trace.size(), 12u);
    EXPECT_GE(result.finetune_retries, 1);
    EXPECT_EQ(result.layers_skipped, 0);
    EXPECT_GE(result.final_accuracy, 0.0);
    EXPECT_LE(result.final_accuracy, 1.0);
}

// Persistent divergence: every fine-tune attempt of every layer goes
// non-finite. Retries are bounded, every layer is skipped (surgery kept),
// and the run still terminates with a full trace instead of hanging or
// training on NaNs.
TEST_F(PruneResumeTest, PersistentDivergenceSkipsLayersButCompletes) {
    const auto dataset = tiny_dataset();
    auto model = tiny_vgg(dataset.config());
    quick_train(model.net, dataset, 3);

    auto cfg = quick_headstart(2.0);
    cfg.max_finetune_retries = 1;
    fault::arm("trainer.nan_grad=nan");
    const auto result = core::headstart_prune_vgg(model, dataset, cfg);
    EXPECT_EQ(result.trace.size(), 12u);
    EXPECT_EQ(result.layers_skipped, 12);
    EXPECT_EQ(result.finetune_retries, 12); // one bounded retry per layer
    for (const auto& row : result.trace) {
        EXPECT_GE(row.maps_after, 1);
        EXPECT_LE(row.maps_after, row.maps_before);
    }
}

} // namespace
} // namespace hs
