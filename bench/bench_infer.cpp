// Frozen-engine inference bench: batch-1 latency of the live layer graph
// (eval-mode Sequential forward) vs the frozen engine (BN folded, bias and
// ReLU fused, planned arena) vs the int8 quantized engine (per-channel
// weight scales, fused dequant epilogue) on scaled VGG-16 — base and sp=2
// pruned — and a small ResNet. Measured CPU fps is printed next to the
// roofline simulator's estimate for the same model on the Xeon E5-2620,
// closing the measured-vs-modelled loop (DESIGN.md §8, §10).
//
// The int8 column carries its own quality gate: top-1 accuracy of fp32
// and int8 on a synthetic eval set (labels exact by construction), their
// delta in points, and the per-image argmax agreement — all exported as
// gauges into BENCH_infer.json so a regression in either speed or
// fidelity is machine-visible. The unpruned-VGG agreement additionally
// has a hard in-process floor (kMinVggAgreement): fidelity below it
// fails the bench outright.
//
// A batch-8 row times the same int8 VGG quantized FOR batch 8 (tuner
// target_batch = 8, so stacked-GEMM tactics can win) on 8-image inputs —
// the throughput operating point next to the batch-1 latency one.
//
// With --baseline <path> (run_benches.sh passes the committed
// BENCH_infer.json) the run also becomes a speed-regression gate: the
// fresh batch-1 int8 VGG latency must stay within 25% of the baseline's,
// scale-matched, else exit 1. A baseline that cannot be read fails too.
//
//   bench_infer [--json <path>] [--baseline <path>]
//
// Timing is median-of-k single-image forwards after warmup, so one-off
// page faults and allocator warmup do not skew any side.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "data/synthetic.h"
#include "gpusim/device.h"
#include "gpusim/roofline.h"
#include "infer/infer.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "obs/obs.h"
#include "nn/conv2d.h"
#include "pruning/surgery.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/rng.h"
#include "util/error.h"
#include "util/fsio.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace hs;

Tensor random_image(int c, int s, std::uint64_t seed) {
    Tensor t({1, c, s, s});
    Rng rng(seed);
    rng.fill_normal(t, 0.0, 1.0);
    return t;
}

/// Hard fidelity floor for the unpruned-VGG int8 argmax agreement. The
/// pre-tuner per-tensor 7-bit scheme measured 0.80 here; the floored
/// per-channel + full-range scheme measures ~0.87 — the floor catches a
/// return to (or below) the old fidelity without flapping on the ~±0.02
/// eval-set noise between scales.
constexpr double kMinVggAgreement = 0.80;

/// The gated fields of a committed BENCH_infer.json run report.
struct Baseline {
    std::string scale;        ///< config.scale
    double int8_vgg_ms = 0.0; ///< metrics.gauges["infer.int8_vgg_ms"]
};

/// Reads the gated fields of the run report at `path`; nullopt when the
/// file is missing, malformed or lacks either field.
std::optional<Baseline> read_baseline(const std::string& path) {
    std::optional<obs::JsonValue> report;
    try {
        report = obs::parse_json(read_file(path));
    } catch (const Error&) {
        return std::nullopt;
    }
    if (!report) return std::nullopt;
    const obs::JsonValue* config = report->find("config");
    const obs::JsonValue* metrics = report->find("metrics");
    const obs::JsonValue* scale = config ? config->find("scale") : nullptr;
    const obs::JsonValue* gauges = metrics ? metrics->find("gauges") : nullptr;
    const obs::JsonValue* ms =
        gauges ? gauges->find("infer.int8_vgg_ms") : nullptr;
    if (scale == nullptr || scale->kind != obs::JsonValue::Kind::kString ||
        ms == nullptr || ms->kind != obs::JsonValue::Kind::kNumber)
        return std::nullopt;
    return Baseline{scale->string, ms->number};
}

/// Median wall-clock milliseconds of `fn()` over `reps` runs (after 2
/// warmup calls).
template <typename F>
double median_ms(int reps, F&& fn) {
    fn();
    fn();
    std::vector<double> ms(static_cast<std::size_t>(reps));
    for (double& m : ms) {
        Stopwatch watch;
        fn();
        m = watch.millis();
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

// --------------------------------------------------------- measured peaks
//
// The roofline's "% of peak" compares against what this machine's own
// GEMM kernels sustain on an in-cache problem — a measured ceiling, not a
// datasheet number — so the per-layer percentages answer "how much of the
// attainable throughput does this shape reach".

/// Best-of-8 fp32 gemm() on a 128³ problem (~130 KB of operands: L2-hot).
double measured_fp32_peak_gflops() {
    constexpr int n = 128;
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (int i = 0; i < n * n; ++i) {
        a[static_cast<std::size_t>(i)] = static_cast<float>(i % 13) * 0.125f;
        b[static_cast<std::size_t>(i)] = static_cast<float>(i % 7) * 0.25f;
    }
    double best_ms = 1e30;
    for (int r = 0; r < 8; ++r) {
        Stopwatch watch;
        gemm(n, n, n, 1.0f, {a.data(), a.size()}, {b.data(), b.size()}, 0.0f,
             {c.data(), c.size()});
        best_ms = std::min(best_ms, watch.millis());
    }
    return 2.0 * n * n * n / (best_ms * 1e6); // flops / ns == GFLOP/s
}

/// Best-of-8 int8 gemm_s8u8_bt() at [128, 256]x[128, 256]ᵀ (k aligned to
/// the kernel's 32-byte quantum). "GFLOP/s" counts 2·MACs like the fp32
/// number so the two columns compare directly.
double measured_int8_peak_gflops() {
    constexpr int m = 128, n = 128, k = 256;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
    std::vector<std::uint8_t> b(static_cast<std::size_t>(n) * k);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::int8_t>(static_cast<int>(i % 251) - 125);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::uint8_t>(i % 253);
    double best_ms = 1e30;
    for (int r = 0; r < 8; ++r) {
        Stopwatch watch;
        gemm_s8u8_bt(m, n, k, {a.data(), a.size()}, {b.data(), b.size()},
                     {c.data(), c.size()});
        best_ms = std::min(best_ms, watch.millis());
    }
    return 2.0 * m * n * k / (best_ms * 1e6);
}

/// Turn an Engine's accumulated per-layer profile into roofline rows of
/// the run report. Profiles only accumulate while obs is enabled (i.e.
/// --json runs), so rows with no recorded execution are skipped.
void export_roofline(const char* model_name, const char* precision,
                     const infer::Engine& engine, double peak_gflops) {
    for (const infer::LayerProfile& lp : engine.layer_profile()) {
        if (lp.images == 0 || lp.total_ns == 0) continue;
        obs::RooflineRow row;
        row.model = model_name;
        row.precision = precision;
        row.layer = lp.name;
        row.kind = lp.kind;
        row.macs = lp.macs;
        row.bytes = (lp.weight_bytes + lp.act_bytes) * lp.images;
        row.wall_ns = lp.total_ns;
        row.images = lp.images;
        const double flops =
            2.0 * static_cast<double>(lp.macs) * static_cast<double>(lp.images);
        row.gflops = flops / static_cast<double>(lp.total_ns);
        row.intensity =
            row.bytes > 0 ? flops / static_cast<double>(row.bytes) : 0.0;
        row.pct_peak =
            peak_gflops > 0.0 ? 100.0 * row.gflops / peak_gflops : 0.0;
        obs::RunReport::global().add_roofline(row);
    }
}

/// Halve every conv except the last (the paper's learnt sp=2 VGG shape).
models::VggModel halved_vgg(const models::VggModel& original) {
    auto pruned = original;
    pruning::ConvChain chain{&pruned.net, pruned.conv_indices,
                             pruned.classifier_index};
    for (int i = 0; i < pruned.num_convs() - 1; ++i) {
        const auto& conv =
            pruned.net.layer_as<nn::Conv2d>(pruned.conv_indices[i]);
        std::vector<int> keep;
        for (int c = 0; c < conv.out_channels(); c += 2) keep.push_back(c);
        pruning::prune_feature_maps(chain, i, keep);
    }
    return pruned;
}

int argmax(std::span<const float> row) {
    return static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
}

/// Top-1 accuracy of `engine` on the split, plus per-image predictions.
double top1(infer::Engine& engine, const data::Split& split, int classes,
            std::vector<int>& preds) {
    const int n = split.size();
    preds.resize(static_cast<std::size_t>(n));
    const int batch = engine.max_batch();
    int correct = 0;
    for (int i0 = 0; i0 < n; i0 += batch) {
        const int b = std::min(batch, n - i0);
        const std::int64_t per = split.images.numel() / n;
        Tensor x({b, 3, split.images.dim(2), split.images.dim(3)});
        std::copy_n(split.images.data().data() + i0 * per, b * per,
                    x.data().data());
        const Tensor out = engine.run(x);
        for (int i = 0; i < b; ++i) {
            const int p = argmax(out.data().subspan(
                static_cast<std::size_t>(i * classes),
                static_cast<std::size_t>(classes)));
            preds[static_cast<std::size_t>(i0 + i)] = p;
            if (p == split.labels[static_cast<std::size_t>(i0 + i)]) ++correct;
        }
    }
    return 100.0 * correct / n;
}

struct RowResult {
    double naive_ms = 0.0;
    double frozen_ms = 0.0;
    double frozen_fps = 0.0;
    double int8_ms = 0.0;
    double int8_speedup = 0.0;   ///< frozen fp32 ms / int8 ms, batch 1
    double top1_delta_pts = 0.0; ///< |top1(fp32) − top1(int8)| in points
    double agreement = 0.0;      ///< fraction of images with equal argmax
};

RowResult bench_model(TablePrinter& table, const char* name,
                      nn::Sequential& net, int input_size, int reps,
                      const data::SyntheticImageDataset& eval,
                      double fp32_peak_gflops, double int8_peak_gflops) {
    const Shape chw{3, input_size, input_size};
    const Tensor x = random_image(3, input_size, 17);

    const double naive_ms =
        median_ms(reps, [&] { (void)net.forward(x, /*train=*/false); });

    auto frozen =
        std::make_shared<const infer::FrozenModel>(infer::freeze(net, chw));
    infer::Engine engine(frozen, 1);
    const double frozen_ms = median_ms(reps, [&] { (void)engine.run(x); });

    // Int8 twin: calibrate on a slice of the train split (representative
    // activations), then time the same batch-1 loop.
    const int calib_n = std::min(8, eval.train().size());
    const std::int64_t per = eval.train().images.numel() / eval.train().size();
    Tensor calib({calib_n, 3, input_size, input_size});
    std::copy_n(eval.train().images.data().data(),
                static_cast<std::int64_t>(calib_n) * per, calib.data().data());
    auto int8 = std::make_shared<const infer::FrozenModel>(
        infer::quantize(*frozen, calib));
    infer::Engine qengine(int8, 1);
    const double int8_ms = median_ms(reps, [&] { (void)qengine.run(x); });

    // Fidelity: top-1 of both precisions on the labeled eval set.
    const int classes = static_cast<int>(frozen->output_elems);
    infer::Engine feval(frozen, 16);
    infer::Engine qeval(int8, 16);
    std::vector<int> fp, qp;
    const double f_top1 = top1(feval, eval.test(), classes, fp);
    const double q_top1 = top1(qeval, eval.test(), classes, qp);
    int agree = 0;
    for (std::size_t i = 0; i < fp.size(); ++i)
        if (fp[i] == qp[i]) ++agree;

    // Roofline rows from the batch-1 timing engines: everything the
    // median_ms loops executed while obs was enabled (--json runs).
    export_roofline(name, "fp32", engine, fp32_peak_gflops);
    export_roofline(name, "int8", qengine, int8_peak_gflops);

    const auto roofline =
        gpusim::estimate_inference(net, chw, gpusim::xeon_e5_2620(), 1);
    RowResult r;
    r.naive_ms = naive_ms;
    r.frozen_ms = frozen_ms;
    r.frozen_fps = 1e3 / frozen_ms;
    r.int8_ms = int8_ms;
    r.int8_speedup = frozen_ms / int8_ms;
    r.top1_delta_pts = std::abs(f_top1 - q_top1);
    r.agreement = fp.empty() ? 0.0 : static_cast<double>(agree) / fp.size();
    table.add_row({name, TablePrinter::num(naive_ms, 3),
                   TablePrinter::num(frozen_ms, 3),
                   TablePrinter::num(int8_ms, 3),
                   TablePrinter::num(r.int8_speedup, 2) + "x",
                   TablePrinter::num(1e3 / int8_ms, 1),
                   TablePrinter::num(r.top1_delta_pts, 2),
                   TablePrinter::num(100.0 * r.agreement, 1) + "%",
                   TablePrinter::num(roofline.fps, 1)});
    return r;
}

/// Batch-8 int8 throughput: the same VGG re-quantized FOR batch 8
/// (tuner target_batch = 8 lets stacked-GEMM and wider tilings win the
/// race) run on 8-image inputs. Returns images/s; also exported as
/// gauges so BENCH_infer.json carries both operating points.
double bench_vgg_batch8(nn::Sequential& net, int input_size, int reps) {
    constexpr int kBatch = 8;
    const Shape chw{3, input_size, input_size};
    auto frozen =
        std::make_shared<const infer::FrozenModel>(infer::freeze(net, chw));
    Tensor calib({kBatch, 3, input_size, input_size});
    {
        Rng rng(23);
        rng.fill_normal(calib, 0.0, 1.0);
    }
    infer::QuantizeOptions opts;
    opts.tuner.target_batch = kBatch;
    auto int8 = std::make_shared<const infer::FrozenModel>(
        infer::quantize(*frozen, calib, opts));
    infer::Engine engine(int8, kBatch);
    Tensor x({kBatch, 3, input_size, input_size});
    {
        Rng rng(29);
        rng.fill_normal(x, 0.0, 1.0);
    }
    const double ms = median_ms(reps, [&] { (void)engine.run(x); });
    const double fps = kBatch * 1e3 / ms;
    std::printf("int8 VGG batch-%d: %.3f ms/batch, %.1f images/s\n", kBatch,
                ms, fps);
    obs::gauge_set("infer.int8_vgg_b8_ms", ms);
    obs::gauge_set("infer.int8_vgg_b8_fps", fps);
    return fps;
}

void export_row(const char* key, const RowResult& r) {
    const std::string k(key);
    obs::gauge_set("infer." + k + "_speedup", r.naive_ms / r.frozen_ms);
    obs::gauge_set("infer.int8_" + k + "_speedup", r.int8_speedup);
    obs::gauge_set("infer.int8_" + k + "_ms", r.int8_ms);
    obs::gauge_set("infer.int8_" + k + "_top1_delta_pts", r.top1_delta_pts);
    obs::gauge_set("infer.int8_" + k + "_argmax_agreement", r.agreement);
}

} // namespace

int main(int argc, char** argv) {
    const bench::BenchRun run = bench::bench_run("infer", argc, argv);
    std::string baseline_path;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline_path = argv[++i];
    // Read before measuring, so a baseline that cannot be read fails in
    // seconds rather than after the whole run.
    std::optional<Baseline> baseline;
    if (!baseline_path.empty()) {
        baseline = read_baseline(baseline_path);
        if (!baseline) {
            std::fprintf(stderr,
                         "baseline %s: unreadable, or no config.scale or "
                         "infer.int8_vgg_ms gauge -> FAIL\n",
                         baseline_path.c_str());
            return 1;
        }
    }
    Stopwatch total;

    const int reps = bench::scale() == bench::Scale::kFull    ? 51
                     : bench::scale() == bench::Scale::kQuick ? 21
                                                              : 7;

    models::VggConfig vgg_cfg;
    auto vgg = models::make_vgg16(vgg_cfg);
    auto vgg_pruned = halved_vgg(vgg);

    models::ResNetConfig res_cfg;
    res_cfg.blocks_per_group = {2, 2, 2};
    auto resnet = models::make_resnet(res_cfg);
    // Move BN statistics off their init so folding runs on real values.
    Rng rng(5);
    for (int i = 0; i < 3; ++i) {
        Tensor warm({4, 3, res_cfg.input_size, res_cfg.input_size});
        rng.fill_normal(warm, 0.0, 1.0);
        (void)resnet.net.forward(warm, /*train=*/true);
    }
    resnet.net.zero_grad();

    // Eval set matching the models' class count and input geometry; the
    // train split doubles as the quantization calibration source.
    data::SyntheticConfig eval_cfg;
    eval_cfg.num_classes = vgg_cfg.num_classes;
    eval_cfg.image_size = vgg_cfg.input_size;
    eval_cfg.train_per_class = 1;
    eval_cfg.test_per_class = bench::scale() == bench::Scale::kFull    ? 25
                              : bench::scale() == bench::Scale::kQuick ? 10
                                                                       : 4;
    const data::SyntheticImageDataset eval(eval_cfg);

    // Measured in-cache GEMM ceilings anchoring every pct_peak column.
    const double fp32_peak = measured_fp32_peak_gflops();
    const double int8_peak = measured_int8_peak_gflops();
    std::printf("measured peak: fp32 %.1f GFLOP/s, int8 %.1f Gop/s\n",
                fp32_peak, int8_peak);
    obs::gauge_set("roofline.fp32_peak_gflops", fp32_peak);
    obs::gauge_set("roofline.int8_peak_gflops", int8_peak);

    TablePrinter table({"model", "naive ms", "fp32 ms", "int8 ms",
                        "int8 speedup", "int8 fps", "top1 Δpt", "agree",
                        "roofline fps"});
    const RowResult base =
        bench_model(table, "VGG-16 (scaled)", vgg.net, vgg_cfg.input_size,
                    reps, eval, fp32_peak, int8_peak);
    const RowResult pruned =
        bench_model(table, "VGG-16 sp=2", vgg_pruned.net, vgg_cfg.input_size,
                    reps, eval, fp32_peak, int8_peak);
    const RowResult res = bench_model(table, "ResNet-14", resnet.net,
                                      res_cfg.input_size, reps, eval,
                                      fp32_peak, int8_peak);
    table.print();

    const double b8_fps = bench_vgg_batch8(vgg.net, vgg_cfg.input_size, reps);

    export_row("vgg", base);
    export_row("vgg_pruned", pruned);
    export_row("resnet", res);
    obs::RunReport::global().set_config("reps",
                                        static_cast<std::int64_t>(reps));
    obs::RunReport::global().set_config(
        "eval_images", static_cast<std::int64_t>(eval.test().size()));

    // Fidelity floor: the unpruned VGG is the hardest int8 row; its
    // agreement dropping to (or below) the pre-tuner level fails the run.
    bool gate_failed = false;
    if (base.agreement < kMinVggAgreement) {
        std::fprintf(stderr,
                     "fidelity gate: int8 VGG argmax agreement %.3f below "
                     "floor %.2f -> FAIL\n",
                     base.agreement, kMinVggAgreement);
        gate_failed = true;
    }

    // Speed gate against the committed baseline: fresh batch-1 int8 VGG
    // latency must stay within 25% of the baseline run's, same scale.
    // Latency — not the fp32/int8 speedup ratio — because the fp32
    // numerator's run-to-run noise on a small box would make a ratio gate
    // flap.
    if (baseline) {
        if (baseline->scale != bench::scale_name()) {
            std::printf("baseline scale '%s' != run scale '%s'; "
                        "latency gate skipped\n",
                        baseline->scale.c_str(), bench::scale_name());
        } else {
            const double cap_ms = 1.25 * baseline->int8_vgg_ms;
            const bool fail = base.int8_ms > cap_ms;
            std::printf("int8 latency gate: %.3f ms measured vs %.3f ms "
                        "baseline (cap %.3f) -> %s\n",
                        base.int8_ms, baseline->int8_vgg_ms, cap_ms,
                        fail ? "FAIL" : "ok");
            gate_failed = gate_failed || fail;
        }
    }

    bench::bench_finish(run, total.seconds());
    if (gate_failed) return 1;
    return b8_fps > 0.0 ? 0 : 1;
}
