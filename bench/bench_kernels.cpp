// Kernel microbenchmarks: fp32 GEMM / im2col / conv, and the full int8
// GEMM tactic catalog (kernel × tile-ways × batch-stacking) that the
// freeze-time Tuner races. Not a paper table — these validate the compute
// substrate, provide the CPU throughput numbers that sanity-check the
// roofline simulator's CPU device models, and make per-tactic GFLOP/s
// machine-readable (BENCH_kernels.json) so a kernel regression is visible
// before it shows up as a slow tuned plan.
//
//   bench_kernels [--json <path>]
//
// Every row is also exported as a gauge: kernels.<name>_gflops (fp32 and
// int8 GEMMs), kernels.<name>_melems (im2col), kernels.<name>_fps (model
// forward). Int8 rows are named kernels.int8_<kernel>_w<wbits>_t<ways>
// [_stack]_<m>x<n>x<k>_gflops — one gauge per catalog tactic per shape.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "infer/tuner.h"
#include "models/vgg.h"
#include "nn/conv2d.h"
#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace hs;

/// Best wall-clock milliseconds of `fn()` over `reps` timed runs (after
/// one warmup). Best-of, not median: a microbench wants the attainable
/// ceiling of an in-cache kernel, and one-off page faults only add time.
template <typename F>
double best_ms(int reps, F&& fn) {
    fn();
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        Stopwatch watch;
        fn();
        best = std::min(best, watch.millis());
    }
    return best;
}

/// "GFLOP/s" counting 2·MACs, so fp32 and int8 rows compare directly.
double gflops(std::int64_t macs, double ms) {
    return 2.0 * static_cast<double>(macs) / (ms * 1e6);
}

void export_gauge(const std::string& name, double value) {
    obs::gauge_set("kernels." + name, value);
}

// ------------------------------------------------------------------ fp32

void bench_fp32_gemm(TablePrinter& table, int reps) {
    Rng rng(1);
    for (const int n : {64, 128, 256}) {
        Tensor a({n, n}), b({n, n}), c({n, n});
        rng.fill_normal(a, 0.0, 1.0);
        rng.fill_normal(b, 0.0, 1.0);
        const double ms = best_ms(reps, [&] {
            gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
        });
        const double gf = gflops(static_cast<std::int64_t>(n) * n * n, ms);
        const std::string name = "gemm_" + std::to_string(n);
        table.add_row({"fp32 gemm " + std::to_string(n) + "^3", "-",
                       TablePrinter::num(ms, 3), TablePrinter::num(gf, 2)});
        export_gauge(name + "_gflops", gf);
    }
}

/// gemm_bt at the shapes it runs at: the square row, then Conv2d::backward's
/// per-image dW += dY · colsᵀ (m = filters, n = C·K·K, k = out_h·out_w) for
/// the deep, middle and first convs of hsbench's VGG (width 0.125, 16×16
/// inputs), then a batched Linear classifier (m = batch, n = classes,
/// k = features). The small shapes run `calls` back-to-back per timed
/// sample so one sample is not a handful of microseconds of clock jitter.
void bench_gemm_bt(TablePrinter& table, int reps) {
    struct Shape {
        int m, n, k;
        float beta; // 1 where the caller accumulates (dW)
        const char* name;
    };
    const Shape shapes[] = {{128, 128, 128, 0.0f, "128"},
                            {64, 576, 4, 1.0f, "64x576x4"},
                            {32, 288, 16, 1.0f, "32x288x16"},
                            {8, 72, 256, 1.0f, "8x72x256"},
                            {8, 4, 64, 0.0f, "8x4x64"}};
    Rng rng(2);
    for (const Shape& s : shapes) {
        Tensor a({s.m, s.k}), b({s.n, s.k}), c({s.m, s.n});
        rng.fill_normal(a, 0.0, 1.0);
        rng.fill_normal(b, 0.0, 1.0);
        const std::int64_t macs = static_cast<std::int64_t>(s.m) * s.n * s.k;
        const int calls = static_cast<int>(std::max<std::int64_t>(1, (1 << 20) / macs));
        const double ms = best_ms(reps, [&] {
                              for (int r = 0; r < calls; ++r)
                                  gemm_bt(s.m, s.n, s.k, 1.0f, a.data(), b.data(), s.beta,
                                          c.data());
                          }) /
                          calls;
        const double gf = gflops(macs, ms);
        table.add_row({std::string("fp32 gemm_bt ") + s.name, "-", TablePrinter::num(ms, 4),
                       TablePrinter::num(gf, 2)});
        export_gauge(std::string("gemm_bt_") + s.name + "_gflops", gf);
    }
}

void bench_im2col(TablePrinter& table, int reps) {
    Rng rng(3);
    for (const int s : {16, 32}) {
        const ConvGeom g{16, s, s, 3, 1, 1};
        Tensor img({16 * s * s});
        rng.fill_normal(img, 0.0, 1.0);
        Tensor cols({static_cast<int>(g.col_rows() * g.col_cols())});
        const double ms =
            best_ms(reps, [&] { im2col(g, img.data(), cols.data()); });
        const double melems =
            static_cast<double>(cols.numel()) / (ms * 1e3);
        table.add_row({"im2col 16x" + std::to_string(s) + "x" +
                           std::to_string(s) + " k3",
                       "-", TablePrinter::num(ms, 3),
                       TablePrinter::num(melems, 1) + " Me/s"});
        export_gauge("im2col_" + std::to_string(s) + "_melems", melems);
    }
}

void bench_conv_forward(TablePrinter& table, int reps) {
    Rng rng(4);
    for (const int c : {16, 32, 64}) {
        nn::Conv2d conv(c, c, 3, 1, 1, true, rng);
        Tensor x({8, c, 16, 16});
        rng.fill_normal(x, 0.0, 1.0);
        const double ms =
            best_ms(reps, [&] { (void)conv.forward(x, false); });
        const std::int64_t macs =
            8LL * c * c * 9 * 16 * 16;
        const double gf = gflops(macs, ms);
        table.add_row({"conv fwd " + std::to_string(c) + "ch b8", "-",
                       TablePrinter::num(ms, 3), TablePrinter::num(gf, 2)});
        export_gauge("conv_fwd_" + std::to_string(c) + "_gflops", gf);
    }
}

void bench_vgg_forward(TablePrinter& table, int reps) {
    models::VggConfig cfg;
    cfg.width_scale = 0.125;
    cfg.input_size = 16;
    auto model = models::make_vgg16(cfg);
    Rng rng(6);
    Tensor x({16, 3, 16, 16});
    rng.fill_normal(x, 0.0, 1.0);
    const double ms =
        best_ms(reps, [&] { (void)model.net.forward(x, false); });
    const double fps = 16.0 * 1e3 / ms;
    table.add_row({"vgg16/8 fwd b16", "-", TablePrinter::num(ms, 3),
                   TablePrinter::num(fps, 1) + " fps"});
    export_gauge("vgg_fwd_fps", fps);
}

// ------------------------------------------------------------------ int8

/// The shapes the tuned engine actually runs: (F, oh·ow, padded C·k·k) of
/// scaled-VGG conv layers plus the in-cache peak probe bench_infer uses.
struct QShape {
    int m, n, k;
    const char* why;
};

std::string tactic_name(const QGemmTactic& t) {
    std::string s;
    switch (t.kernel) {
    case QKernel::kMaddubs: s = "maddubs"; break;
    case QKernel::kVnni: s = "vnni"; break;
    case QKernel::kScalarRef: s = "scalar"; break;
    case QKernel::kAuto: s = "auto"; break;
    }
    s += "_w" + std::to_string(static_cast<int>(t.wbits));
    s += "_t" + std::to_string(static_cast<int>(t.ways));
    if (t.batch_stack) s += "_stack";
    return s;
}

void bench_int8_catalog(TablePrinter& table, int reps) {
    // target_batch 8 gives the stacked candidates a real batch to stack.
    constexpr int kTargetBatch = 8;
    const QShape shapes[] = {
        {128, 128, 256, "peak probe"},
        {64, 256, 608, "vgg conv3 (quick)"},
        {128, 64, 1184, "vgg conv5 (quick)"},
    };
    Rng rng(7);
    for (const QShape& sh : shapes) {
        const std::string dims = std::to_string(sh.m) + "x" +
                                 std::to_string(sh.n) + "x" +
                                 std::to_string(sh.k);
        for (const int wbits : {7, 8}) {
            if (wbits == 8 && !cpu_supports_vnni()) continue;
            for (QGemmTactic t : infer::Tuner::candidates(
                     wbits, /*can_stack=*/true, kTargetBatch)) {
                QGemmTactic probe = t;
                if (normalize_tactic(probe)) continue;  // not on this host
                const int n_eff =
                    t.batch_stack ? sh.n * kTargetBatch : sh.n;
                const int runs = t.batch_stack ? 1 : kTargetBatch;
                std::vector<std::int8_t> a(
                    static_cast<std::size_t>(sh.m) * sh.k);
                std::vector<std::uint8_t> b(
                    static_cast<std::size_t>(n_eff) * sh.k);
                std::vector<std::int32_t> c(
                    static_cast<std::size_t>(sh.m) * n_eff);
                const int qmax =
                    wbits == 8 ? kWeightQMaxFull : kWeightQMax;
                for (auto& v : a)
                    v = static_cast<std::int8_t>(
                        rng.uniform_int(2 * qmax + 1) - qmax);
                for (auto& v : b)
                    v = static_cast<std::uint8_t>(rng.uniform_int(256));
                const double ms = best_ms(reps, [&] {
                    for (int r = 0; r < runs; ++r)
                        qgemm(t, sh.m, n_eff, sh.k, {a.data(), a.size()},
                              {b.data(), b.size()}, {c.data(), c.size()});
                });
                // GFLOP/s over the whole batch of 8 images either way.
                const std::int64_t macs = static_cast<std::int64_t>(runs) *
                                          sh.m * n_eff * sh.k;
                const double gf = gflops(macs, ms);
                const std::string name = tactic_name(t);
                table.add_row({"int8 " + dims + " (" + sh.why + ")", name,
                               TablePrinter::num(ms, 3),
                               TablePrinter::num(gf, 2)});
                export_gauge("int8_" + name + "_" + dims + "_gflops", gf);
            }
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    const bench::BenchRun run = bench::bench_run("kernels", argc, argv);
    Stopwatch total;

    const int reps = bench::scale() == bench::Scale::kFull    ? 40
                     : bench::scale() == bench::Scale::kQuick ? 16
                                                              : 4;

    TablePrinter table({"kernel", "tactic", "best ms", "throughput"});
    bench_fp32_gemm(table, reps);
    bench_gemm_bt(table, reps);
    bench_im2col(table, reps);
    bench_conv_forward(table, reps);
    bench_vgg_forward(table, reps);
    bench_int8_catalog(table, reps);
    table.print();

    obs::RunReport::global().set_config("reps",
                                        static_cast<std::int64_t>(reps));
    bench::bench_finish(run, total.seconds());
    return 0;
}
