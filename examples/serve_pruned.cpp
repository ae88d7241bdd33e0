// serve_pruned: the deployment round trip. Prune a scaled VGG-16, save the
// checkpoint, reload it into a freshly built twin of the pruned
// architecture, freeze it (BN folding + memory planning), and serve
// synthetic open-loop traffic through the batching runtime — reporting
// p50/p95/p99 latency and throughput.
//
//   serve_pruned [--smoke] [--int8] [--json <path>] [--weights <path>]
//                [--requests N] [--rps R] [--workers N] [--batch N]
//                [--deadline-us N] [--watchdog-us N]
//                [--retries N] [--listen] [--port N]
//                [--connect host:port] [--models name=path,...]
//
// Three modes:
//   * default — in-process round trip: synthetic open-loop traffic is
//     submitted straight into the ServingEngine;
//   * --listen — same model + engine, but fronted by the hs::net epoll
//     TCP server (--port, default ephemeral). Runs until SIGTERM/SIGINT,
//     then drains gracefully: stop accepting, NACK new requests
//     kDraining, resolve everything accepted, flush, exit. SIGHUP
//     triggers a zero-downtime reload: every registry model is re-read
//     from its source file through the validation gauntlet (rollback on
//     failure), and serving continues;
//   * --connect host:port — pure client: drives the same open-loop
//     traffic at a remote serve_pruned --listen over the frame protocol.
//
// `--models name=path,...` serves a fleet of pre-frozen v5 HSWT files
// instead of the built-in pruned VGG; the first entry is the default
// model (wire id 0). Without it, the pruned VGG is frozen, saved to a
// temp HSWT file, and registered as "default" — so SIGHUP reload has a
// file to re-read in either mode.
//
// `--smoke` shrinks the run to a couple of seconds (used by the CTest
// smoke test); `--int8` quantizes the frozen plan (calibrating on a
// synthetic batch) and round-trips it through the v5 frozen-model file
// before serving, exercising the full deploy path; `--json` writes the
// hs::obs run report with the serving percentiles as gauges.
// Backpressure is handled like a real client: rejected submits (local
// admission verdicts and remote NACK frames alike) are retried through
// net::Backoff — exponential, seeded from the engine's EWMA retry-after
// hint — up to `--retries` times before giving up, and the report
// includes the shed / deadline-missed / worker-restart counters next to
// the latency percentiles.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "infer/infer.h"
#include "models/vgg.h"
#include "net/net.h"
#include "nn/conv2d.h"
#include "nn/serialize.h"
#include "obs/hdr_histogram.h"
#include "obs/obs.h"
#include "pruning/surgery.h"
#include "tensor/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace hs;

struct Options {
    bool smoke = false;
    bool int8 = false;
    std::string json_path;
    std::string weights_path;
    int requests = 256;
    double rps = 500.0;
    int workers = 2;
    int max_batch = 8;
    std::int64_t deadline_us = 0;   ///< per-request deadline; 0 = none
    std::int64_t watchdog_us = 0;   ///< worker watchdog timeout; 0 = off
    int retries = 6;                ///< submit attempts after a rejection
    bool listen = false;            ///< front the engine with hs::net
    int port = 0;                   ///< --listen port; 0 = ephemeral
    std::string connect;            ///< client mode: "host:port"
    std::string models;             ///< fleet spec: "name=path,..."
};

Options parse_options(int argc, char** argv) {
    Options opt;
    auto value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) opt.smoke = true;
        else if (std::strcmp(argv[i], "--int8") == 0) opt.int8 = true;
        else if (std::strcmp(argv[i], "--json") == 0) opt.json_path = value(i);
        else if (std::strcmp(argv[i], "--weights") == 0)
            opt.weights_path = value(i);
        else if (std::strcmp(argv[i], "--requests") == 0)
            opt.requests = std::atoi(value(i));
        else if (std::strcmp(argv[i], "--rps") == 0) opt.rps = std::atof(value(i));
        else if (std::strcmp(argv[i], "--workers") == 0)
            opt.workers = std::atoi(value(i));
        else if (std::strcmp(argv[i], "--batch") == 0)
            opt.max_batch = std::atoi(value(i));
        else if (std::strcmp(argv[i], "--deadline-us") == 0)
            opt.deadline_us = std::atol(value(i));
        else if (std::strcmp(argv[i], "--watchdog-us") == 0)
            opt.watchdog_us = std::atol(value(i));
        else if (std::strcmp(argv[i], "--retries") == 0)
            opt.retries = std::atoi(value(i));
        else if (std::strcmp(argv[i], "--listen") == 0) opt.listen = true;
        else if (std::strcmp(argv[i], "--port") == 0)
            opt.port = std::atoi(value(i));
        else if (std::strcmp(argv[i], "--connect") == 0)
            opt.connect = value(i);
        else if (std::strcmp(argv[i], "--models") == 0)
            opt.models = value(i);
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            std::exit(2);
        }
    }
    if (opt.smoke) {
        opt.requests = 48;
        opt.rps = 2000.0;
        opt.workers = 2;
        opt.max_batch = 4;
        opt.deadline_us = 500'000; // generous: smoke asserts completions
        opt.watchdog_us = 250'000;
    }
    if (opt.weights_path.empty())
        opt.weights_path = (std::filesystem::temp_directory_path() /
                            "hs_serve_pruned_weights.bin")
                               .string();
    return opt;
}

/// Keep every other feature map in each conv except the last (conv5_3),
/// the shape of the paper's learnt sp=2 VGG. Returns the pruned widths.
std::vector<int> prune_vgg(models::VggModel& model) {
    pruning::ConvChain chain{&model.net, model.conv_indices,
                             model.classifier_index};
    for (int i = 0; i < model.num_convs() - 1; ++i) {
        const auto& conv =
            model.net.layer_as<nn::Conv2d>(model.conv_indices[i]);
        std::vector<int> keep;
        for (int c = 0; c < conv.out_channels(); c += 2) keep.push_back(c);
        pruning::prune_feature_maps(chain, i, keep);
    }
    std::vector<int> widths;
    widths.reserve(static_cast<std::size_t>(model.num_convs()));
    for (const int ci : model.conv_indices)
        widths.push_back(model.net.layer_as<nn::Conv2d>(ci).out_channels());
    return widths;
}

/// The signals --listen mode waits on: SIGTERM/SIGINT drain and exit,
/// SIGHUP hot-reloads the model fleet in place.
sigset_t drain_sigset() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGHUP);
    return set;
}

/// SIGHUP handler body: re-deploy every registry model from its recorded
/// source file through the gauntlet. A rolled-back reload leaves the
/// incumbent serving — reload never takes the fleet down.
void reload_fleet(infer::ServingEngine& serving) {
    for (const auto& info : serving.registry()->list()) {
        if (info.path.empty()) {
            std::printf("reload '%s': skipped (no source file recorded)\n",
                        info.name.c_str());
            continue;
        }
        const infer::ReloadResult r = serving.reload(info.name, info.path);
        if (r.ok)
            std::printf("reload '%s': v%lld -> v%lld (agreement %.2f)\n",
                        r.name.c_str(), static_cast<long long>(r.old_version),
                        static_cast<long long>(r.new_version),
                        r.canary_agreement);
        else
            std::printf("reload '%s': ROLLED BACK at %s stage: %s\n",
                        info.name.c_str(), r.stage.c_str(), r.error.c_str());
    }
    std::fflush(stdout);
}

/// --listen: front the engine with the epoll server, run until
/// SIGTERM/SIGINT, then the graceful drain sequence (stop accepting ->
/// NACK new requests kDraining -> resolve accepted work -> flush -> exit).
/// The drain signals must already be blocked (done in main before any
/// thread was spawned, so every thread inherits the mask and sigwait is
/// the only consumer).
int run_listen(infer::ServingEngine& serving, const Options& opt) {
    net::ServerConfig net_cfg;
    net_cfg.port = static_cast<std::uint16_t>(opt.port);
    net::Server server(serving, net_cfg);
    server.start();
    std::printf(
        "serving on 127.0.0.1:%u — SIGTERM/SIGINT drains, SIGHUP reloads\n",
        server.port());
    std::fflush(stdout);

    sigset_t set = drain_sigset();
    int sig = 0;
    for (;;) {
        while (sigwait(&set, &sig) != 0) {}
        if (sig != SIGHUP) break;
        std::printf("caught SIGHUP: reloading model fleet\n");
        reload_fleet(serving);
    }
    std::printf("caught %s: draining\n", sig == SIGTERM ? "SIGTERM" : "SIGINT");

    server.begin_drain();  // refuse sockets, NACK new frames kDraining
    const std::int64_t failed = serving.drain(/*timeout_us=*/5'000'000);
    const bool flushed = server.drain(/*timeout_us=*/2'000'000);
    server.stop();
    serving.stop();

    const net::NetStats net_stats = server.stats();
    const infer::ServingStats stats = serving.stats();
    TablePrinter table({"metric", "value"});
    table.add_row({"connections", std::to_string(net_stats.accepted)});
    table.add_row({"request frames", std::to_string(net_stats.frames_in)});
    table.add_row({"responses", std::to_string(net_stats.responses)});
    table.add_row({"NACKs", std::to_string(net_stats.nacks)});
    table.add_row({"bad frames", std::to_string(net_stats.bad_frames)});
    table.add_row({"completed", std::to_string(stats.completed)});
    table.add_row({"shed (deadline)", std::to_string(stats.shed)});
    table.add_row({"drained at exit", std::to_string(failed)});
    table.add_row({"flushed in time", flushed ? "yes" : "no"});
    table.add_row({"p99 latency (ms)", TablePrinter::num(stats.p99_ms, 3)});
    table.print();
    return 0;
}

/// --connect host:port — drive a remote serve_pruned --listen with the
/// same open-loop traffic shape as the local mode, through the frame
/// protocol, with NACK-hint-seeded Backoff retries inside call().
int run_client(const Options& opt) {
    const auto colon = opt.connect.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect expects host:port\n");
        return 2;
    }
    const std::string host = opt.connect.substr(0, colon);
    const int port = std::atoi(opt.connect.c_str() + colon + 1);

    // Mirror the server side's default model geometry: the remote NACKs
    // kBadRequest if the shapes disagree, which shows up as failures.
    models::VggConfig cfg;
    Tensor image({cfg.input_channels, cfg.input_size, cfg.input_size});
    Rng rng(7);
    rng.fill_normal(image, 0.0, 1.0);
    const std::span<const float> input(
        image.data().data(), static_cast<std::size_t>(image.numel()));

    net::Client client;
    client.connect(host, static_cast<std::uint16_t>(port));
    std::printf("connected to %s:%d\n", host.c_str(), port);

    obs::HdrHistogram latency_us;
    std::int64_t ok = 0, failed = 0, retries = 0;
    const std::int64_t gap_ns =
        static_cast<std::int64_t>(1e9 / std::max(opt.rps, 1.0));
    std::int64_t next_ns = monotonic_ns();
    for (int i = 0; i < opt.requests; ++i) {
        while (monotonic_ns() < next_ns) std::this_thread::yield();
        next_ns += gap_ns;
        const std::int64_t t0 = monotonic_ns();
        const net::CallResult res = client.call(
            input, static_cast<std::uint64_t>(opt.deadline_us), opt.retries);
        retries += res.retries;
        if (res.ok) {
            latency_us.observe((monotonic_ns() - t0) / 1000);
            ++ok;
        } else {
            ++failed;
            if (res.reason == net::NackReason::kDraining) break;
        }
    }

    TablePrinter table({"metric", "value"});
    table.add_row({"requests", std::to_string(opt.requests)});
    table.add_row({"completed", std::to_string(ok)});
    table.add_row({"failed (NACK)", std::to_string(failed)});
    table.add_row({"retries", std::to_string(retries)});
    table.add_row(
        {"p50 latency (ms)",
         TablePrinter::num(
             static_cast<double>(latency_us.value_at_quantile(0.5)) / 1000.0,
             3)});
    table.add_row(
        {"p99 latency (ms)",
         TablePrinter::num(
             static_cast<double>(latency_us.value_at_quantile(0.99)) / 1000.0,
             3)});
    table.print();
    return ok > 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    if (!opt.connect.empty()) return run_client(opt);
    if (opt.listen) {
        // Block the drain signals before any thread exists so every
        // engine/server thread inherits the mask and run_listen's
        // sigwait is the one consumer.
        sigset_t set = drain_sigset();
        pthread_sigmask(SIG_BLOCK, &set, nullptr);
    }
    if (!opt.json_path.empty()) obs::set_enabled(true);
    Stopwatch total;

    auto registry = std::make_shared<infer::ModelRegistry>();
    std::string default_frozen_path;  // temp HSWT backing SIGHUP reloads

    if (!opt.models.empty()) {
        // Fleet mode: serve pre-frozen v5 HSWT files; the first entry is
        // the default model (wire id 0).
        std::size_t pos = 0;
        while (pos <= opt.models.size()) {
            const std::size_t comma = opt.models.find(',', pos);
            const std::string entry =
                opt.models.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
            const std::size_t eq = entry.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr, "--models expects name=path,...\n");
                return 2;
            }
            const std::string name = entry.substr(0, eq);
            const std::string path = entry.substr(eq + 1);
            auto model = std::make_shared<const infer::FrozenModel>(
                infer::load_frozen(path));
            registry->add(name, model, 1, path);
            std::printf("registered '%s' (id %zu) from %s: %zu ops, "
                        "%.2f MMACs/image\n",
                        name.c_str(), registry->size() - 1, path.c_str(),
                        model->ops.size(),
                        static_cast<double>(model->macs) * 1e-6);
            if (comma == std::string::npos) break;
            pos = comma + 1;
        }
    } else {
        // 1. Train-side: build, prune, checkpoint.
        models::VggConfig cfg;
        auto trained = models::make_vgg16(cfg);
        const std::vector<int> widths = prune_vgg(trained);
        nn::save_parameters(trained.net, opt.weights_path);
        std::printf("checkpointed pruned VGG-16 (widths");
        for (const int w : widths) std::printf(" %d", w);
        std::printf(") to %s\n", opt.weights_path.c_str());

        // 2. Serve-side: rebuild the pruned architecture fresh, restore
        //    the checkpoint, freeze for the fixed input shape.
        auto served = models::make_vgg16_widths(widths, cfg);
        nn::load_parameters(served.net, opt.weights_path);
        auto frozen = std::make_shared<const infer::FrozenModel>(infer::freeze(
            served.net, {cfg.input_channels, cfg.input_size, cfg.input_size}));
        std::printf("frozen: %zu ops, %.2f MMACs/image\n", frozen->ops.size(),
                    static_cast<double>(frozen->macs) * 1e-6);

        // Optional int8 deploy path: calibrate + quantize; the quantized
        // plan then ships through the v5 container below like any deploy.
        if (opt.int8) {
            Tensor calib(
                {8, cfg.input_channels, cfg.input_size, cfg.input_size});
            Rng calib_rng(11);
            calib_rng.fill_normal(calib, 0.0, 1.0);
            frozen = std::make_shared<const infer::FrozenModel>(
                infer::quantize(*frozen, calib));
            std::printf("int8: plan quantized\n");
        }

        // Round-trip through the v5 frozen container and keep the file:
        // it is both the deploy-path exercise and the source a SIGHUP
        // reload re-reads.
        default_frozen_path = (std::filesystem::temp_directory_path() /
                               "hs_serve_pruned_frozen.hswt")
                                  .string();
        infer::save_frozen(*frozen, default_frozen_path);
        frozen = std::make_shared<const infer::FrozenModel>(
            infer::load_frozen(default_frozen_path));
        registry->add("default", frozen, 1, default_frozen_path);
    }

    // 3. Open-loop synthetic traffic at a fixed request rate.
    infer::ServingConfig serve_cfg;
    serve_cfg.workers = opt.workers;
    serve_cfg.max_batch = opt.max_batch;
    serve_cfg.queue_capacity = 4 * opt.max_batch * opt.workers;
    serve_cfg.default_deadline_us = opt.deadline_us;
    serve_cfg.watchdog_timeout_us = opt.watchdog_us;
    infer::ServingEngine serving(registry, serve_cfg);

    if (opt.listen) {
        const int rc = run_listen(serving, opt);
        std::remove(opt.weights_path.c_str());
        if (!default_frozen_path.empty())
            std::remove(default_frozen_path.c_str());
        return rc;
    }

    Tensor image(registry->find_id(0)->model->input_chw);
    Rng rng(7);
    rng.fill_normal(image, 0.0, 1.0);

    const std::int64_t gap_ns =
        static_cast<std::int64_t>(1e9 / std::max(opt.rps, 1.0));
    std::vector<std::future<Tensor>> inflight;
    inflight.reserve(static_cast<std::size_t>(opt.requests));
    std::int64_t submit_retries = 0;
    std::int64_t gave_up = 0;
    std::int64_t next_ns = monotonic_ns();
    for (int i = 0; i < opt.requests; ++i) {
        while (monotonic_ns() < next_ns) std::this_thread::yield();
        next_ns += gap_ns;
        // Backpressure loop: net::Backoff honors the engine's retry-after
        // hint with capped exponential backoff instead of silently
        // dropping the request — the same policy net::Client::call uses
        // against NACK frames.
        net::Backoff backoff;
        for (int attempt = 0;; ++attempt) {
            auto result = serving.submit(image, infer::SubmitOptions{});
            if (result.accepted()) {
                inflight.push_back(std::move(*result.future));
                break;
            }
            if (result.admission == infer::Admission::kStopped ||
                attempt >= opt.retries) {
                ++gave_up;
                break;
            }
            ++submit_retries;
            std::this_thread::sleep_for(std::chrono::microseconds(
                backoff.next_us(result.retry_after_us)));
        }
    }
    std::int64_t client_deadline_failures = 0;
    for (auto& fut : inflight) {
        try {
            (void)fut.get();
        } catch (const infer::DeadlineExceeded&) {
            ++client_deadline_failures; // shed by the engine; also in stats
        }
    }
    serving.stop();

    // 4. Report.
    const infer::ServingStats stats = serving.stats();
    TablePrinter table({"metric", "value"});
    table.add_row({"requests", std::to_string(opt.requests)});
    table.add_row({"completed", std::to_string(stats.completed)});
    table.add_row({"rejected", std::to_string(stats.rejected)});
    table.add_row({"shed (deadline)", std::to_string(stats.shed)});
    table.add_row({"deadline missed", std::to_string(stats.deadline_missed)});
    table.add_row({"worker restarts", std::to_string(stats.worker_restarts)});
    table.add_row({"submit retries", std::to_string(submit_retries)});
    table.add_row({"gave up (backoff)", std::to_string(gave_up)});
    table.add_row(
        {"futures failed (client)", std::to_string(client_deadline_failures)});
    table.add_row({"batches", std::to_string(stats.batches)});
    table.add_row({"mean batch", TablePrinter::num(stats.mean_batch, 2)});
    table.add_row({"p50 latency (ms)", TablePrinter::num(stats.p50_ms, 3)});
    table.add_row({"p95 latency (ms)", TablePrinter::num(stats.p95_ms, 3)});
    table.add_row({"p99 latency (ms)", TablePrinter::num(stats.p99_ms, 3)});
    table.add_row(
        {"throughput (req/s)", TablePrinter::num(stats.throughput_rps, 1)});
    table.print();

    obs::gauge_set("serve.p50_ms", stats.p50_ms);
    obs::gauge_set("serve.p95_ms", stats.p95_ms);
    obs::gauge_set("serve.p99_ms", stats.p99_ms);
    obs::gauge_set("serve.throughput_rps", stats.throughput_rps);
    obs::gauge_set("serve.shed", static_cast<double>(stats.shed));
    obs::gauge_set("serve.deadline_missed",
                   static_cast<double>(stats.deadline_missed));
    obs::gauge_set("serve.worker_restarts",
                   static_cast<double>(stats.worker_restarts));
    obs::gauge_set("serve.submit_retries",
                   static_cast<double>(submit_retries));
    obs::gauge_set("serve.gave_up", static_cast<double>(gave_up));

    auto& report = obs::RunReport::global();
    report.set_config("example", std::string("serve_pruned"));
    report.set_config("precision",
                      std::string(opt.int8 ? "int8" : "fp32"));
    report.set_config("requests", static_cast<std::int64_t>(opt.requests));
    report.set_config("rps", opt.rps);
    report.set_config("workers", static_cast<std::int64_t>(opt.workers));
    report.set_config("max_batch", static_cast<std::int64_t>(opt.max_batch));
    report.set_config("deadline_us",
                      static_cast<std::int64_t>(opt.deadline_us));
    report.set_config("watchdog_us",
                      static_cast<std::int64_t>(opt.watchdog_us));
    report.add_section("total", total.seconds());
    if (!opt.json_path.empty() && obs::write_run_report(opt.json_path))
        std::printf("run report: %s\n", opt.json_path.c_str());

    std::remove(opt.weights_path.c_str());
    if (!default_frozen_path.empty())
        std::remove(default_frozen_path.c_str());
    return stats.completed > 0 ? 0 : 1;
}
