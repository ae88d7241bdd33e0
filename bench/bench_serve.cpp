// bench_serve: open-loop load harness for the hs::net serving front-end.
//
// Stands up the full deployment stack in one process — pruned VGG-16,
// frozen plan, ServingEngine, epoll Server on a loopback ephemeral port —
// and drives it with an open-loop Poisson arrival process through a real
// net::Client connection (sender and receiver threads, pipelined frames).
// Open loop matters: a closed loop slows its own arrivals when the server
// slows down and so can never see saturation; here arrivals keep coming
// at the offered rate no matter what the server does, exactly like
// independent clients would.
//
// The offered rate ramps geometrically until the server stops sustaining
// it. A rate is "sustained" when the client-observed p99 stays within the
// SLO, every request got an answer, and at most 1% of answers were NACKs
// (sheds / admission rejections). The JSON artifact (BENCH_serve.json via
// run_benches.sh) records the whole sweep plus the max sustained QPS and
// its latency percentiles — the serving capacity number the README
// quotes. Latencies come from the same obs::HdrHistogram the engine uses
// (≤ ~3% quantile error, O(1) memory under load).
//
// The whole sweep runs under continuous hot-swaps: a background thread
// keeps reloading the default model from its HSWT file through the full
// validation gauntlet while the ramp is climbing, so the capacity number
// is measured with deploys in flight, not on a quiet server. With
// --baseline <path> the run becomes a regression gate: it parses the
// committed sweep artifact and exits non-zero when the fresh
// max_sustained_qps drops more than 20% below it (same scale only).
//
//   bench_serve [--json <path>] [--baseline <path>]
//
// HEADSTART_BENCH_SCALE=smoke|quick|full sizes the windows and ramp.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "infer/infer.h"
#include "net/net.h"
#include "nn/conv2d.h"
#include "obs/json.h"
#include "pruning/surgery.h"
#include "tensor/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace hs;

/// Keep every other feature map in each conv except the last — the shape
/// of the paper's learnt sp=2 VGG (same surgery as serve_pruned).
void prune_vgg(models::VggModel& model) {
    pruning::ConvChain chain{&model.net, model.conv_indices,
                             model.classifier_index};
    for (int i = 0; i < model.num_convs() - 1; ++i) {
        const auto& conv =
            model.net.layer_as<nn::Conv2d>(model.conv_indices[i]);
        std::vector<int> keep;
        for (int c = 0; c < conv.out_channels(); c += 2) keep.push_back(c);
        pruning::prune_feature_maps(chain, i, keep);
    }
}

/// One rate step of the sweep.
struct SweepPoint {
    double offered_qps = 0.0;
    std::int64_t sent = 0;
    std::int64_t completed = 0;  ///< responses with a value
    std::int64_t nacked = 0;     ///< typed NACKs (shed / rejected)
    double achieved_qps = 0.0;   ///< completed / window
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    bool sustained = false;
};

/// Drive one fixed-rate open-loop window against the server and measure
/// client-side latency. Sender paces Poisson arrivals; receiver drains
/// responses concurrently on the same connection.
SweepPoint run_window(net::Client& client, double rate_qps,
                      double window_s, std::int64_t deadline_us,
                      std::span<const float> input, std::uint64_t seed) {
    SweepPoint pt;
    pt.offered_qps = rate_qps;

    std::mutex mu;  // guards send_ns
    std::unordered_map<std::uint64_t, std::int64_t> send_ns;
    obs::HdrHistogram latency_us;
    std::atomic<std::int64_t> to_receive{0};
    std::atomic<bool> sender_done{false};
    std::int64_t completed = 0, nacked = 0;

    std::thread receiver([&] {
        for (;;) {
            if (sender_done.load(std::memory_order_acquire) &&
                to_receive.load(std::memory_order_acquire) == 0)
                return;
            if (to_receive.load(std::memory_order_acquire) == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                continue;
            }
            const net::Frame frame = client.recv_frame();
            std::int64_t sent_at = 0;
            {
                std::lock_guard<std::mutex> lock(mu);
                const auto it = send_ns.find(frame.header.request_id);
                if (it == send_ns.end()) continue;  // stray frame
                sent_at = it->second;
                send_ns.erase(it);
            }
            to_receive.fetch_sub(1, std::memory_order_acq_rel);
            if (frame.header.type == net::FrameType::kResponse) {
                latency_us.observe((monotonic_ns() - sent_at) / 1000);
                ++completed;
            } else {
                ++nacked;
            }
        }
    });

    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap_s(rate_qps);
    const std::int64_t start_ns = monotonic_ns();
    const std::int64_t end_ns =
        start_ns + static_cast<std::int64_t>(window_s * 1e9);
    std::int64_t next_ns = start_ns;
    while (next_ns < end_ns) {
        while (monotonic_ns() < next_ns)
            std::this_thread::yield();
        const std::int64_t now = monotonic_ns();
        {
            // Stamp before the write so queueing inside send() counts
            // against the server, not the bookkeeping.
            std::lock_guard<std::mutex> lock(mu);
            send_ns.emplace(client.send(input, /*deadline_us=*/
                                        static_cast<std::uint64_t>(
                                            deadline_us)),
                            now);
        }
        to_receive.fetch_add(1, std::memory_order_acq_rel);
        ++pt.sent;
        next_ns += static_cast<std::int64_t>(gap_s(rng) * 1e9);
    }
    sender_done.store(true, std::memory_order_release);
    receiver.join();

    pt.completed = completed;
    pt.nacked = nacked;
    pt.achieved_qps = static_cast<double>(completed) / window_s;
    pt.p50_ms =
        static_cast<double>(latency_us.value_at_quantile(0.50)) / 1000.0;
    pt.p90_ms =
        static_cast<double>(latency_us.value_at_quantile(0.90)) / 1000.0;
    pt.p99_ms =
        static_cast<double>(latency_us.value_at_quantile(0.99)) / 1000.0;
    return pt;
}

/// Pull one `"key":<scalar>` value out of a committed sweep artifact.
/// Flat string scan on purpose: the artifact is written by obs::JsonWriter
/// right above, and a JSON parser is not worth a dependency for a gate.
std::string baseline_field(const std::string& text, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return {};
    std::size_t from = at + needle.size();
    std::size_t to = from;
    if (from < text.size() && text[from] == '"') {
        ++from;
        to = text.find('"', from);
    } else {
        to = text.find_first_of(",}", from);
    }
    if (to == std::string::npos) return {};
    return text.substr(from, to - from);
}

} // namespace

int main(int argc, char** argv) {
    std::string json_path;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline_path = argv[++i];
    }
    Stopwatch total;

    // Ramp geometry per scale: window per rate step, step count, growth.
    double window_s = 1.5;
    int max_steps = 10;  // batching lifts capacity ~10-20x over 1/latency
    switch (bench::scale()) {
    case bench::Scale::kSmoke:
        window_s = 0.4;
        max_steps = 3;
        break;
    case bench::Scale::kQuick: break;
    case bench::Scale::kFull:
        window_s = 4.0;
        max_steps = 12;
        break;
    }
    constexpr double kRampFactor = 1.6;
    constexpr double kMaxNackFraction = 0.01;

    // The served model: pruned + frozen VGG-16 at bench scale.
    const data::SyntheticConfig data_cfg = bench::cifar_bench();
    const models::VggConfig vgg_cfg = bench::vgg_bench(data_cfg);
    auto model = models::make_vgg16(vgg_cfg);
    prune_vgg(model);
    auto frozen = std::make_shared<const infer::FrozenModel>(
        infer::freeze(model.net, {vgg_cfg.input_channels, vgg_cfg.input_size,
                                  vgg_cfg.input_size}));
    std::printf("serving pruned VGG-16: %.2f MMACs/image, input %lld floats\n",
                static_cast<double>(frozen->macs) * 1e-6,
                static_cast<long long>(frozen->input_elems));

    // Registry-hosted so the sweep can hot-swap the model mid-ramp: the
    // frozen plan ships through the v5 container to a temp HSWT file that
    // the reloader thread keeps re-reading through the gauntlet.
    const std::string frozen_path =
        (std::filesystem::temp_directory_path() / "hs_bench_serve.hswt")
            .string();
    infer::save_frozen(*frozen, frozen_path);
    auto registry = std::make_shared<infer::ModelRegistry>();
    registry->add("default", frozen, 1, frozen_path);

    infer::ServingConfig serve_cfg;
    serve_cfg.workers = 2;
    serve_cfg.max_batch = 8;
    serve_cfg.queue_capacity = 256;
    infer::ServingEngine engine(registry, serve_cfg);
    net::ServerConfig net_cfg;  // loopback, ephemeral port, 2 loops
    net::Server server(engine, net_cfg);
    server.start();

    Tensor image({vgg_cfg.input_channels, vgg_cfg.input_size,
                  vgg_cfg.input_size});
    Rng rng(7);
    rng.fill_normal(image, 0.0, 1.0);
    const std::span<const float> input(image.data().data(),
                                       static_cast<std::size_t>(image.numel()));

    net::Client client;
    client.connect("127.0.0.1", server.port());

    // Warm up (arena faults, first-touch caches) and estimate the
    // per-request service time to pick the ramp's starting rate and SLO.
    std::int64_t warm_us = 0;
    constexpr int kWarmup = 8;
    for (int i = 0; i < kWarmup; ++i) {
        const std::int64_t t0 = monotonic_ns();
        const net::CallResult res = client.call_once(input, 0);
        if (!res.ok) {
            std::fprintf(stderr, "warmup request failed\n");
            return 1;
        }
        warm_us += (monotonic_ns() - t0) / 1000;
    }
    warm_us /= kWarmup;
    // SLO: generous multiple of the unloaded latency, floored so CI
    // jitter can't flake it.
    const std::int64_t slo_us = std::max<std::int64_t>(50'000, 20 * warm_us);
    // Start well under one-at-a-time capacity; the ramp finds the rest.
    double rate = std::max(4.0, 0.25 * 1e6 / static_cast<double>(warm_us));
    std::printf("unloaded latency ~%lld us; SLO p99 <= %.1f ms; "
                "ramp starts at %.0f qps\n",
                static_cast<long long>(warm_us),
                static_cast<double>(slo_us) / 1000.0, rate);

    // Continuous deploys for the whole sweep: one full hot-swap (read +
    // gauntlet + atomic swap + refcount drain of the old plan) roughly
    // twice per measurement window. Capacity is quoted under this churn.
    std::atomic<bool> reload_stop{false};
    std::thread reloader([&] {
        const auto gap =
            std::chrono::milliseconds(static_cast<int>(window_s * 500.0));
        while (!reload_stop.load(std::memory_order_acquire)) {
            (void)engine.reload("default", frozen_path);
            const auto deadline = std::chrono::steady_clock::now() + gap;
            while (!reload_stop.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    std::vector<SweepPoint> sweep;
    double max_sustained_qps = 0.0;
    double p50_at_max = 0.0, p99_at_max = 0.0;
    for (int step = 0; step < max_steps; ++step) {
        SweepPoint pt = run_window(client, rate, window_s, slo_us, input,
                                   /*seed=*/42 + static_cast<std::uint64_t>(
                                                     step));
        const bool answered_all = pt.completed + pt.nacked == pt.sent;
        pt.sustained =
            answered_all && pt.sent > 0 &&
            pt.p99_ms * 1000.0 <= static_cast<double>(slo_us) &&
            static_cast<double>(pt.nacked) <=
                kMaxNackFraction * static_cast<double>(pt.sent);
        sweep.push_back(pt);
        std::printf("  %8.0f qps offered -> %8.0f achieved, p99 %7.2f ms, "
                    "%lld NACKs%s\n",
                    pt.offered_qps, pt.achieved_qps, pt.p99_ms,
                    static_cast<long long>(pt.nacked),
                    pt.sustained ? "" : "  [not sustained]");
        if (!pt.sustained) break;  // found the knee; the sweep is done
        if (pt.achieved_qps > max_sustained_qps) {
            max_sustained_qps = pt.achieved_qps;
            p50_at_max = pt.p50_ms;
            p99_at_max = pt.p99_ms;
        }
        rate *= kRampFactor;
    }

    reload_stop.store(true, std::memory_order_release);
    reloader.join();
    const infer::ReloadStats reload_stats = registry->reload_stats();
    std::remove(frozen_path.c_str());

    // Graceful teardown in the documented SIGTERM order.
    server.begin_drain();
    engine.drain(/*timeout_us=*/2'000'000);
    server.drain(/*timeout_us=*/2'000'000);
    client.close();
    server.stop();
    engine.stop();
    const net::NetStats net_stats = server.stats();

    TablePrinter table({"metric", "value"});
    table.add_row({"sweep points", std::to_string(sweep.size())});
    table.add_row(
        {"max sustained qps", TablePrinter::num(max_sustained_qps, 1)});
    table.add_row({"p50 at max (ms)", TablePrinter::num(p50_at_max, 3)});
    table.add_row({"p99 at max (ms)", TablePrinter::num(p99_at_max, 3)});
    table.add_row({"SLO (ms)",
                   TablePrinter::num(static_cast<double>(slo_us) / 1000.0, 1)});
    table.add_row({"frames in", std::to_string(net_stats.frames_in)});
    table.add_row({"NACKs", std::to_string(net_stats.nacks)});
    table.add_row({"reloads attempted", std::to_string(reload_stats.attempts)});
    table.add_row({"reloads succeeded", std::to_string(reload_stats.successes)});
    table.add_row({"reload rollbacks", std::to_string(reload_stats.rollbacks)});
    table.print();

    // Regression gate against the committed sweep artifact: the capacity
    // under mid-ramp reloads must stay within 20% of the baseline. Scales
    // size the model and windows differently, so only a same-scale
    // baseline is comparable.
    bool gate_failed = false;
    double baseline_qps = 0.0;
    if (!baseline_path.empty()) {
        std::string text;
        if (FILE* f = std::fopen(baseline_path.c_str(), "rb")) {
            char buf[4096];
            std::size_t n = 0;
            while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
                text.append(buf, n);
            std::fclose(f);
        }
        const std::string qps_s = baseline_field(text, "max_sustained_qps");
        const std::string scale_s = baseline_field(text, "scale");
        const std::string this_scale =
            bench::scale() == bench::Scale::kFull    ? "full"
            : bench::scale() == bench::Scale::kQuick ? "quick"
                                                     : "smoke";
        if (qps_s.empty()) {
            std::fprintf(stderr,
                         "baseline %s: no max_sustained_qps; gate skipped\n",
                         baseline_path.c_str());
        } else if (scale_s != this_scale) {
            std::printf("baseline scale '%s' != run scale '%s'; "
                        "QPS gate skipped\n",
                        scale_s.c_str(), this_scale.c_str());
        } else {
            baseline_qps = std::strtod(qps_s.c_str(), nullptr);
            const double floor_qps = 0.8 * baseline_qps;
            gate_failed = max_sustained_qps < floor_qps;
            std::printf("QPS gate: %.1f measured vs %.1f baseline "
                        "(floor %.1f) -> %s\n",
                        max_sustained_qps, baseline_qps, floor_qps,
                        gate_failed ? "FAIL" : "ok");
        }
    }

    if (!json_path.empty()) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("bench"); w.value("serve");
        w.key("scale");
        w.value(bench::scale() == bench::Scale::kFull    ? "full"
                : bench::scale() == bench::Scale::kQuick ? "quick"
                                                         : "smoke");
        w.key("slo_ms");
        w.value(static_cast<double>(slo_us) / 1000.0);
        w.key("unloaded_latency_us"); w.value(warm_us);
        w.key("model");
        w.begin_object();
        w.key("macs"); w.value(frozen->macs);
        w.key("input_elems"); w.value(frozen->input_elems);
        w.end_object();
        w.key("serving");
        w.begin_object();
        w.key("workers"); w.value(serve_cfg.workers);
        w.key("max_batch"); w.value(serve_cfg.max_batch);
        w.key("queue_capacity"); w.value(serve_cfg.queue_capacity);
        w.key("event_loops"); w.value(net_cfg.event_loops);
        w.end_object();
        w.key("sweep");
        w.begin_array();
        for (const SweepPoint& pt : sweep) {
            w.begin_object();
            w.key("offered_qps"); w.value(pt.offered_qps);
            w.key("sent"); w.value(pt.sent);
            w.key("completed"); w.value(pt.completed);
            w.key("nacked"); w.value(pt.nacked);
            w.key("achieved_qps"); w.value(pt.achieved_qps);
            w.key("p50_ms"); w.value(pt.p50_ms);
            w.key("p90_ms"); w.value(pt.p90_ms);
            w.key("p99_ms"); w.value(pt.p99_ms);
            w.key("sustained"); w.value(pt.sustained);
            w.end_object();
        }
        w.end_array();
        w.key("max_sustained_qps"); w.value(max_sustained_qps);
        w.key("p50_ms_at_max"); w.value(p50_at_max);
        w.key("p99_ms_at_max"); w.value(p99_at_max);
        w.key("reload");
        w.begin_object();
        w.key("attempts"); w.value(reload_stats.attempts);
        w.key("successes"); w.value(reload_stats.successes);
        w.key("rollbacks"); w.value(reload_stats.rollbacks);
        w.end_object();
        if (baseline_qps > 0.0) {
            w.key("baseline_max_sustained_qps"); w.value(baseline_qps);
        }
        w.key("net");
        w.begin_object();
        w.key("accepted"); w.value(net_stats.accepted);
        w.key("frames_in"); w.value(net_stats.frames_in);
        w.key("responses"); w.value(net_stats.responses);
        w.key("nacks"); w.value(net_stats.nacks);
        w.key("bad_frames"); w.value(net_stats.bad_frames);
        w.key("bytes_in"); w.value(net_stats.bytes_in);
        w.key("bytes_out"); w.value(net_stats.bytes_out);
        w.end_object();
        w.key("total_seconds"); w.value(total.seconds());
        w.end_object();
        if (FILE* f = std::fopen(json_path.c_str(), "w")) {
            const std::string& text = w.str();
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            std::printf("sweep report: %s\n", json_path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
    }

    if (gate_failed) return 1;
    return max_sustained_qps > 0.0 ? 0 : 1;
}
