#include "bench/common.h"

#include <cstdio>
#include <cstring>
#include <thread>

#include "data/dataloader.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/table.h"

namespace hs::bench {

double pretrain(models::VggModel& model, const data::SyntheticImageDataset& dataset,
                int epochs) {
    data::DataLoader loader(dataset.train(), 32, /*shuffle=*/true, 1234);
    nn::SoftmaxCrossEntropy loss;
    nn::SGD opt(model.net.params(), 0.02f, 0.9f, 5e-4f);
    for (int e = 0; e < epochs; ++e) {
        // Step decay: drop the lr 5x for the final 40% of the schedule.
        opt.set_lr(e < epochs * 3 / 5 ? 0.02f : 0.004f);
        const auto stats = nn::train_epoch(model.net, loss, opt, loader);
        if (e % 4 == 3 || e == epochs - 1)
            log_info("pretrain epoch " + std::to_string(e) + ": loss " +
                     std::to_string(stats.loss) + ", train-acc " +
                     std::to_string(stats.accuracy));
    }
    const double acc = nn::evaluate(model.net, dataset.test());
    std::fflush(stdout);
    return acc;
}

std::string pct(double fraction) { return TablePrinter::num(100.0 * fraction, 2); }

std::string millions(std::int64_t count) {
    return TablePrinter::num(static_cast<double>(count) / 1e6, 3);
}

bool has_flag(int argc, char** argv, const char* flag) {
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0) return true;
    return false;
}

BenchRun bench_run(const char* name, int argc, char** argv) {
    BenchRun run;
    run.name = name;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            run.json_path = argv[i + 1];
            break;
        }
    }
    if (!run.json_path.empty()) obs::set_enabled(true);

    if (obs::enabled()) {
        auto& report = obs::RunReport::global();
        report.set_config("bench", std::string(name));
        report.set_config("scale", std::string(scale_name()));
        report.set_config("cores", static_cast<std::int64_t>(
                                       std::thread::hardware_concurrency()));
    }
    return run;
}

void bench_finish(const BenchRun& run, double total_seconds) {
    if (obs::enabled()) {
        obs::RunReport::global().add_section("total", total_seconds);
        obs::gauge_set("bench.total_seconds", total_seconds);
    }
    if (!run.json_path.empty()) (void)obs::write_run_report(run.json_path);
}

} // namespace hs::bench
