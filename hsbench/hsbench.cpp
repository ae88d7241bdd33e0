// hsbench: the repository benchmark program. One process per run.
//
//   hsbench --workload <w2|w1> --seed <n> --seconds <s> --trace <0|1>
//
// Every run is one user session of the whole system, in three phases:
//
//   prune   one core::headstart_prune_vgg call at sp 2 on a base VGG-16
//           trained in set-up with a fixed seed; a closed batch job
//   steady  open-loop Poisson traffic over one TCP connection to the int8,
//           tuned, HSWT-round-tripped pruned VGG: a light and a heavy
//           window (the traced run adds a search for the highest
//           sustained rate)
//   fleet   bursty traffic over a fixed model mix (int8 VGG, fp32 VGG,
//           int8 ResNet-14) while a second connection hot-reloads the
//           int8 VGG from its HSWT file on a fixed cadence
//
// The workload fixes the parallel lanes of the session: w2 runs the search
// with 2 evaluation lanes (parallel rollouts + pipelined fine-tuning) and
// serves with 2 engine workers, w1 runs the sequential search schedule
// (same trace) and serves with 1 worker. Rates, windows, mixes, the
// latency limit and the reload cadence are constants; --seed draws the
// request pool and every arrival schedule. Nothing is derived from a
// measurement of the code under test.
//
// Every output is checked: an int8 reply must equal the reference
// Engine::run output of the same plan and image bit for bit, an fp32 reply
// must have the reference argmax, a pruned layer's compression must land
// in a band around sp and must not be skipped, and a reload must not
// roll back. NACKs and missing replies count as failures.
//
// --trace 0 prints the end-to-end metrics (observability off). --trace 1
// repeats the session with observability on, times each module's public
// entry points from here, and prints the per-layer metrics instead. The
// last stdout line is the JSON result; earlier lines are for people.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unistd.h>
#include <vector>

#include "core/model_pruner.h"
#include "core/search.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "infer/infer.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "net/net.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "pruning/surgery.h"
#include "tensor/gemm_int8.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace {

using namespace hs;

// ---------------------------------------------------------------------------
// Fixed operating point. Sized so one untraced run takes under a minute
// on a 4-core host: the prune phase keeps the quick-scale VGG width
// (0.125) and 16x16 inputs but trains on a small synthetic CIFAR set, and
// every search layer runs a fixed iteration budget (the stability window
// is longer than the budget). The prune job's inputs (data, base, search
// seed) do not depend on --seed, so its work and its pruning trace are
// the same in every run; --seed varies the serving traffic.

constexpr int kClasses = 4;
constexpr int kTrainPerClass = 30;
constexpr int kTestPerClass = 20;
constexpr std::uint64_t kDataSeed = 7;
constexpr std::uint64_t kBaseSeed = 42;
constexpr int kBaseEpochs = 8;
constexpr int kSetups = 3;  // setup_s is the median of this many set-ups

constexpr std::uint64_t kSearchSeed = 47;
constexpr int kSearchIters = 6;
constexpr int kRewardSubset = 24;
constexpr double kBandFactor = 1.5;  // per-layer compression band around sp
constexpr int kSearchProbeLayer = 3;  // conv2_2

constexpr int kPoolImages = 128;  // distinct request images per run
constexpr int kWarmupPerModel = 16;

// Serving deployment: what `serve_pruned --int8` runs.
constexpr int kMaxBatch = 8;
constexpr std::int64_t kMaxDelayUs = 1000;
constexpr int kQueueCapacity = 64;
constexpr std::uint64_t kRequestDeadlineUs = 2'000'000;

constexpr double kP99LimitMs = 25.0;   // max_qps criterion
constexpr double kLadderGrowth = 1.25; // then two geometric bisections
constexpr int kLadderSteps = 12;
constexpr int kBurstSize = 4;          // fleet arrivals come in bursts
constexpr std::int64_t kBurstSpacingNs = 50'000;
constexpr double kReloadEverySec = 0.2;
constexpr std::int64_t kGraceNs = 3'000'000'000;  // wait for late replies

/// Preset speedup of the search; the served VGG keeps every kSp-th map.
constexpr int kSp = 2;

/// A workload fixes the number of parallel lanes of the whole session:
/// evaluation lanes of the search (`HeadStartConfig::workers`) and worker
/// threads of the ServingEngine.
struct Workload {
    const char* name;
    int workers;
    double light_qps;
    double heavy_qps;
    double ladder_start_qps;
    double fleet_qps;
};

// The heavy rate is 1000/s per serving worker: a single worker at 2000/s
// filled its 64-deep queue (and NACKed) whenever the machine stalled it
// for ~35 ms, about one run in ten on a shared 4-core VM.
constexpr Workload kWorkloads[] = {
    {"w2", 2, 300.0, 2000.0, 8000.0, 600.0},
    {"w1", 1, 300.0, 1000.0, 4000.0, 600.0},
};

// Model mix of the fleet phase: registry name, wire weight, traffic share.
struct MixEntry {
    const char* name;
    int weight;
    double share;
};
constexpr MixEntry kMix[] = {
    {"vgg_int8", 3, 0.60},
    {"vgg_fp32", 1, 0.25},
    {"resnet_int8", 1, 0.15},
};
constexpr int kModels = 3;

// ---------------------------------------------------------------------------
// Small helpers.

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

template <class F>
double median_time_s(int reps, F&& body) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        Stopwatch w;
        body();
        t.push_back(w.seconds());
    }
    return median(std::move(t));
}

/// CLOCK_MONOTONIC in ns (steady_clock's source on Linux). The load
/// generator sleeps on absolute deadlines of this clock; hs::monotonic_ns
/// counts from its own process epoch, so it serves only the obs spans.
std::int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void sleep_until_ns(std::int64_t t_ns) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

/// Ops attempted and failed across the whole run (they feed ok_share).
struct Tally {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    void add(std::int64_t n, std::int64_t bad) {
        attempted += n;
        failed += bad;
    }
};

/// Ordered metric list for the result line.
struct Metrics {
    std::vector<std::tuple<std::string, double, std::string>> rows;
    void set(const std::string& name, double value, const std::string& unit) {
        rows.emplace_back(name, value, unit);
    }
};

// ---------------------------------------------------------------------------
// Set-up: data, trained base, deployed fleet, server, warm-up.

data::SyntheticConfig data_config() {
    data::SyntheticConfig cfg = data::cifar100_like();
    cfg.num_classes = kClasses;
    cfg.image_size = 16;
    cfg.train_per_class = kTrainPerClass;
    cfg.test_per_class = kTestPerClass;
    cfg.seed = kDataSeed;
    return cfg;
}

models::VggConfig vgg_config() {
    models::VggConfig cfg;
    cfg.input_size = 16;
    cfg.num_classes = kClasses;
    cfg.width_scale = 0.125;
    cfg.seed = kBaseSeed;
    return cfg;
}

void train_base(models::VggModel& model, const data::SyntheticImageDataset& d) {
    data::DataLoader loader(d.train(), 32, /*shuffle=*/true, 1234);
    nn::SoftmaxCrossEntropy loss;
    nn::SGD opt(model.net.params(), 0.02f, 0.9f, 5e-4f);
    for (int e = 0; e < kBaseEpochs; ++e) {
        opt.set_lr(e < kBaseEpochs * 3 / 5 ? 0.02f : 0.004f);
        (void)nn::train_epoch(model.net, loss, opt, loader);
    }
}

/// Keep every sp-th feature map of every conv but the last: the shape of
/// a learnt sp-speedup VGG (the same surgery bench_serve applies at sp 2).
void shape_pruned(models::VggModel& model, int sp) {
    pruning::ConvChain chain{&model.net, model.conv_indices,
                             model.classifier_index};
    for (int i = 0; i < model.num_convs() - 1; ++i) {
        const auto& conv =
            model.net.layer_as<nn::Conv2d>(model.conv_indices[i]);
        std::vector<int> keep;
        for (int c = 0; c < conv.out_channels(); c += sp) keep.push_back(c);
        pruning::prune_feature_maps(chain, i, keep);
    }
}

Tensor calibration_batch(const data::SyntheticImageDataset& d, int n) {
    const auto& imgs = d.train().images;
    const std::int64_t per = shape_numel({3, 16, 16});
    Tensor calib({n, 3, 16, 16});
    std::copy_n(imgs.data().begin(), n * per, calib.data().begin());
    return calib;
}

struct ServedModel {
    std::string name;
    std::uint8_t id = 0;
    bool int8 = false;
    std::shared_ptr<const infer::FrozenModel> plan;
    std::vector<std::vector<float>> ref;  ///< per pool image
};

struct Session {
    const Workload* wl = nullptr;
    std::unique_ptr<data::SyntheticImageDataset> data;
    models::VggModel base;
    models::VggModel serve_vgg;  ///< sp-shaped, before freeze
    std::string hswt_path;
    std::vector<std::vector<float>> pool;  ///< request images, flat CHW
    ServedModel models[kModels];
    std::shared_ptr<infer::ModelRegistry> registry;
    std::unique_ptr<infer::ServingEngine> engine;
    std::unique_ptr<net::Server> server;
    std::int64_t warmup_failed = 0;

    void teardown() {
        if (server) server->stop();
        if (engine) engine->stop();
        server.reset();
        engine.reset();
        registry.reset();
    }
    ~Session() { teardown(); }
};

std::vector<float> argmax_ref(std::span<const float> v) {
    return {static_cast<float>(std::max_element(v.begin(), v.end()) -
                               v.begin())};
}

bool reply_ok(const ServedModel& m, std::size_t img, std::span<const float> out) {
    const auto& ref = m.ref[img];
    if (m.int8) {
        return out.size() == ref.size() &&
               std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)) ==
                   0;
    }
    return !out.empty() &&
           static_cast<float>(std::max_element(out.begin(), out.end()) -
                              out.begin()) == ref[0];
}

void build_session(Session& s, const Workload& wl, std::uint64_t seed,
                   const std::string& tmp_dir) {
    s.wl = &wl;
    s.data = std::make_unique<data::SyntheticImageDataset>(data_config());
    s.base = models::make_vgg16(vgg_config());
    train_base(s.base, *s.data);

    // int8 pruned VGG: freeze, quantize + tune, HSWT round trip.
    s.serve_vgg = s.base;
    shape_pruned(s.serve_vgg, kSp);
    const Shape chw{3, 16, 16};
    auto fp32 = std::make_shared<const infer::FrozenModel>(
        infer::freeze(s.serve_vgg.net, chw));
    const Tensor calib = calibration_batch(*s.data, 8);
    const infer::FrozenModel q = infer::quantize(*fp32, calib);
    s.hswt_path = tmp_dir + "/vgg_int8.hswt";
    infer::save_frozen(q, s.hswt_path);
    auto vgg_int8 =
        std::make_shared<const infer::FrozenModel>(infer::load_frozen(s.hswt_path));

    // int8 ResNet-14, BatchNorm statistics moved off their init.
    models::ResNetConfig rc;
    rc.blocks_per_group = {2, 2, 2};
    rc.num_classes = kClasses;
    rc.input_size = 16;
    models::ResNetModel resnet = models::make_resnet(rc);
    (void)resnet.net.forward(calibration_batch(*s.data, 32), /*train=*/true);
    auto resnet_fp32 = infer::freeze(resnet.net, chw);
    auto resnet_int8 = std::make_shared<const infer::FrozenModel>(
        infer::quantize(resnet_fp32, calib));

    // Seeded pool of distinct synthetic test images.
    data::SyntheticConfig pool_cfg = data_config();
    pool_cfg.seed = 1000 + seed;
    pool_cfg.train_per_class = 1;
    pool_cfg.test_per_class = (kPoolImages + kClasses - 1) / kClasses;
    const data::SyntheticImageDataset pool_data(pool_cfg);
    const std::int64_t per = shape_numel(chw);
    s.pool.clear();
    for (int i = 0; i < kPoolImages; ++i) {
        const auto img = pool_data.test().images.data().subspan(
            static_cast<std::size_t>(i * per), static_cast<std::size_t>(per));
        s.pool.emplace_back(img.begin(), img.end());
    }

    const std::shared_ptr<const infer::FrozenModel> plans[kModels] = {
        vgg_int8, fp32, resnet_int8};
    s.registry = std::make_shared<infer::ModelRegistry>();
    for (int m = 0; m < kModels; ++m) {
        ServedModel& sm = s.models[m];
        sm.name = kMix[m].name;
        sm.plan = plans[m];
        sm.int8 = plans[m]->precision == infer::Precision::kInt8;
        infer::Engine engine(plans[m], 1);
        sm.ref.clear();
        std::vector<float> out(static_cast<std::size_t>(plans[m]->output_elems));
        for (const auto& img : s.pool) {
            engine.run(img, 1, out);
            sm.ref.push_back(sm.int8 ? out : argmax_ref(out));
        }
        sm.id = s.registry->add(sm.name, plans[m], kMix[m].weight,
                                m == 0 ? s.hswt_path : std::string{});
    }

    infer::ServingConfig sc;
    sc.workers = wl.workers;
    sc.max_batch = kMaxBatch;
    sc.max_delay_us = kMaxDelayUs;
    sc.queue_capacity = kQueueCapacity;
    s.engine = std::make_unique<infer::ServingEngine>(s.registry, sc);
    s.server = std::make_unique<net::Server>(*s.engine, net::ServerConfig{});
    s.server->start();

    // Warm-up: a fixed number of checked round trips per model.
    net::Client client;
    client.connect("127.0.0.1", s.server->port());
    s.warmup_failed = 0;
    for (const ServedModel& m : s.models) {
        for (int i = 0; i < kWarmupPerModel; ++i) {
            const std::size_t img = static_cast<std::size_t>(i) % s.pool.size();
            const net::CallResult r =
                client.call_once(s.pool[img], kRequestDeadlineUs, m.int8, m.id);
            if (!r.ok || !reply_ok(m, img, r.output)) ++s.warmup_failed;
        }
    }
}

// ---------------------------------------------------------------------------
// Prune phase.

core::HeadStartConfig prune_config(int workers) {
    core::HeadStartConfig cfg;
    cfg.search.speedup = kSp;
    cfg.search.monte_carlo_k = 3;
    cfg.search.threshold = 0.5f;
    cfg.search.max_iters = kSearchIters;
    cfg.search.stable_window = kSearchIters + 1;  // fixed budget, no early stop
    cfg.search.policy.lr = 5e-3f;
    cfg.reward_subset = kRewardSubset;
    cfg.finetune_epochs = 1;
    cfg.lr = 2e-3f;
    cfg.seed = kSearchSeed;
    cfg.workers = workers;
    return cfg;
}

struct PruneRun {
    double wall_s = 0.0;
    std::int64_t start_us = 0, end_us = 0;
    core::HeadStartResult result;
    std::int64_t layers = 0, bad_layers = 0;
};

PruneRun run_prune(const Session& s) {
    models::VggModel model = s.base;
    const core::HeadStartConfig cfg = prune_config(s.wl->workers);
    PruneRun run;
    run.start_us = monotonic_ns() / 1000;
    {
        obs::Span span("hsbench.prune", "hsbench");
        run.result = core::headstart_prune_vgg(model, *s.data, cfg);
    }
    run.end_us = monotonic_ns() / 1000;
    run.wall_s = static_cast<double>(run.end_us - run.start_us) * 1e-6;
    // A layer fails when its compression maps_before / maps_after leaves
    // [sp / 1.5, sp * 1.5]: the fixed 6-iteration budget leaves the learnt
    // layers between about 1.4x and 2.3x at sp 2. Skipped fine-tunes fail
    // one layer each.
    for (const auto& t : run.result.trace) {
        const double ratio = static_cast<double>(t.maps_before) /
                             std::max(t.maps_after, 1);
        ++run.layers;
        if (ratio < kSp / kBandFactor || ratio > kSp * kBandFactor)
            ++run.bad_layers;
    }
    run.bad_layers =
        std::min(run.layers, run.bad_layers + run.result.layers_skipped);
    std::printf("prune %.3f s, final top-1 %.4f:", run.wall_s,
                run.result.final_accuracy);
    for (const auto& t : run.result.trace)
        std::printf(" %s %d->%d (%.2f/%.2f)", t.name.c_str(), t.maps_before,
                    t.maps_after, t.acc_inception, t.acc_finetuned);
    std::printf("\n");
    return run;
}

bool same_trace(const core::HeadStartResult& a, const core::HeadStartResult& b) {
    if (a.trace.size() != b.trace.size()) return false;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const auto& x = a.trace[i];
        const auto& y = b.trace[i];
        if (x.name != y.name || x.maps_before != y.maps_before ||
            x.maps_after != y.maps_after ||
            x.search_iterations != y.search_iterations ||
            x.acc_inception != y.acc_inception ||
            x.acc_finetuned != y.acc_finetuned || x.params != y.params ||
            x.flops != y.flops)
            return false;
    }
    return a.final_accuracy == b.final_accuracy &&
           a.compression_ratio == b.compression_ratio &&
           a.layers_skipped == b.layers_skipped;
}

// ---------------------------------------------------------------------------
// Open-loop load generation.

struct Arrival {
    std::int64_t due_ns = 0;  ///< offset from the window start
    std::uint8_t model = 0;   ///< index into Session::models
    std::uint32_t img = 0;
};

std::vector<Arrival> poisson_schedule(double qps, double seconds,
                                      std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(qps);
    std::uniform_int_distribution<std::uint32_t> pick(0, kPoolImages - 1);
    std::vector<Arrival> out;
    for (double t = gap(rng); t < seconds; t += gap(rng))
        out.push_back({static_cast<std::int64_t>(t * 1e9), 0, pick(rng)});
    return out;
}

std::vector<Arrival> fleet_schedule(double qps, double seconds,
                                    std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(qps / kBurstSize);
    std::uniform_int_distribution<std::uint32_t> pick(0, kPoolImages - 1);
    std::discrete_distribution<int> model(
        {kMix[0].share, kMix[1].share, kMix[2].share});
    std::vector<Arrival> out;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        for (int b = 0; b < kBurstSize; ++b)
            out.push_back({static_cast<std::int64_t>(t * 1e9) + b * kBurstSpacingNs,
                           static_cast<std::uint8_t>(model(rng)), pick(rng)});
    }
    return out;
}

struct WindowResult {
    std::vector<double> lat_ms;  ///< ok replies, from the due time
    std::vector<double> lag_ms;  ///< how late each send left
    /// (due offset ns, latency ms) of every ok reply, in send order.
    std::vector<std::pair<std::int64_t, double>> due_lat;
    std::int64_t sent = 0, ok = 0, nacks = 0, mismatches = 0, missing = 0;
    bool transport_lost = false;
    [[nodiscard]] std::int64_t failed() const { return sent - ok; }
};

/// Pipelined client over one connection: one sender thread (this one)
/// sleeping until each absolute due time, one receiver thread matching
/// replies to requests and checking them against the references.
class Connection {
public:
    explicit Connection(const Session& s) : s_(s) {
        client_.connect("127.0.0.1", s.server->port());
    }

    WindowResult run(const std::vector<Arrival>& sched) {
        WindowResult res;
        const std::size_t n = sched.size();
        std::vector<std::int64_t> recv_ns(n, 0);
        std::vector<std::uint8_t> state(n, 0);  // 0 pending 1 ok 2 nack 3 bad
        std::mutex mu;
        std::condition_variable cv;
        std::unordered_map<std::uint64_t, std::size_t> pending;
        std::size_t sent = 0, done = 0;
        bool sender_done = false, lost = false;

        std::thread receiver([&] {
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return done < sent || sender_done; });
                    if (done == sent && sender_done) return;
                }
                net::Frame frame;
                try {
                    frame = client_.recv_frame();
                } catch (const std::exception&) {
                    std::lock_guard<std::mutex> lock(mu);
                    lost = true;
                    cv.notify_all();
                    return;
                }
                const std::int64_t t = clock_ns();
                std::lock_guard<std::mutex> lock(mu);
                const auto it = pending.find(frame.header.request_id);
                if (it == pending.end()) continue;
                const std::size_t i = it->second;
                pending.erase(it);
                recv_ns[i] = t;
                if (frame.header.type == net::FrameType::kResponse) {
                    const std::vector<float> out = frame.floats();
                    state[i] = reply_ok(s_.models[sched[i].model], sched[i].img, out)
                                   ? 1
                                   : 3;
                } else {
                    state[i] = 2;
                }
                ++done;
                cv.notify_all();
            }
        });

        const std::int64_t start = clock_ns() + 1'000'000;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t due = start + sched[i].due_ns;
            sleep_until_ns(due);
            const ServedModel& m = s_.models[sched[i].model];
            {
                std::lock_guard<std::mutex> lock(mu);
                if (lost) break;
                pending.emplace(next_id_, i);
                ++sent;
            }
            res.lag_ms.push_back(static_cast<double>(clock_ns() - due) * 1e-6);
            // The receiver thread is live: a transport error or an id the
            // client did not promise ends the window instead of throwing.
            std::uint64_t id = 0;
            try {
                id = client_.send(s_.pool[sched[i].img], kRequestDeadlineUs,
                                  m.int8, m.id);
            } catch (const std::exception&) {
            }
            if (id != next_id_) {
                std::lock_guard<std::mutex> lock(mu);
                lost = true;
                break;
            }
            ++next_id_;
            cv.notify_all();
        }
        const std::int64_t last_due = start + (n ? sched.back().due_ns : 0);
        {
            std::unique_lock<std::mutex> lock(mu);
            sender_done = true;
            cv.notify_all();
            const auto limit = std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(last_due + kGraceNs));
            cv.wait_until(lock, limit, [&] { return done == sent || lost; });
            res.transport_lost = lost || done != sent;
        }
        if (res.transport_lost) {
            // Unblock the receiver: a missing reply is a failure, and the
            // connection cannot be trusted for later windows.
            s_.server->stop();
        }
        receiver.join();

        res.sent = static_cast<std::int64_t>(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t due = start + sched[i].due_ns;
            switch (state[i]) {
            case 1: {
                ++res.ok;
                const double ms = static_cast<double>(recv_ns[i] - due) * 1e-6;
                res.lat_ms.push_back(ms);
                res.due_lat.emplace_back(sched[i].due_ns, ms);
                break;
            }
            case 2: ++res.nacks; break;
            case 3: ++res.mismatches; break;
            default: ++res.missing; break;
            }
        }
        return res;
    }

    net::Client& client() { return client_; }

private:
    const Session& s_;
    net::Client client_;
    std::uint64_t next_id_ = 1;
};

struct ServeResults {
    WindowResult light, heavy, fleet;
    double max_qps = 0.0;
    std::vector<double> reload_ms;
    std::int64_t reload_failed = 0;
    std::vector<double> lag_ms;
    std::int64_t probe_mismatches = 0, probe_requests = 0;
    infer::ServingStats after_light, before_light, after_heavy;
    bool dead = false;
};

/// Quantile q of the latencies per `slice_ns` slice of due times, then
/// the median over slices holding at least 20 replies. A host stall
/// confined to one slice (scheduler wake-up jitter, a busy neighbour on a
/// shared machine) does not move it; a slowdown of the program moves
/// every slice.
double sliced(const WindowResult& w, double q, std::int64_t slice_ns) {
    std::map<std::int64_t, std::vector<double>> slices;
    for (const auto& [due, ms] : w.due_lat) slices[due / slice_ns].push_back(ms);
    std::vector<double> per_slice;
    for (auto& [k, v] : slices)
        if (v.size() >= 20) per_slice.push_back(quantile(std::move(v), q));
    return per_slice.empty() ? quantile(w.lat_ms, q) : median(std::move(per_slice));
}

double tail_quarter_median(const WindowResult& w) {
    if (w.due_lat.empty()) return 0.0;
    const std::int64_t from = w.due_lat.back().first * 3 / 4;
    std::vector<double> v;
    for (const auto& [due, ms] : w.due_lat)
        if (due >= from) v.push_back(ms);
    return median(std::move(v));
}

constexpr std::int64_t kSliceNs = 500'000'000;
constexpr std::int64_t kProbeSliceNs = 250'000'000;

/// A probe rate is sustained when no reply is wrong or missing, at most 1%
/// of requests are NACKed, the sliced p99 stays under the limit, and the
/// last quarter of the window shows no backlog (its median also under the
/// limit). The limit sits well above the scheduler wake-up jitter of a
/// shared 4-core VM (p99 3-6 ms, max ~12 ms for a bare sleeping thread),
/// and the NACK allowance absorbs a single stall overflowing the 64-deep
/// queue, so only sustained overload at the knee trips the test.
bool sustained(const WindowResult& w) {
    return !w.transport_lost && w.mismatches == 0 && w.missing == 0 &&
           w.sent > 0 && w.nacks * 100 <= w.sent &&
           sliced(w, 0.99, kProbeSliceNs) <= kP99LimitMs &&
           tail_quarter_median(w) <= kP99LimitMs;
}

void run_serving(Session& s, const Workload& wl, std::uint64_t seed,
                 double seconds, bool search_max_qps, ServeResults& r) {
    const double light_s = 0.3 * seconds;
    const double heavy_s = 0.3 * seconds;
    const double probe_s = 0.06 * seconds;
    const double fleet_s = 0.4 * seconds;
    const std::uint64_t base = seed * 1'000'003ULL;

    Connection conn(s);
    auto note = [&](const char* name, const WindowResult& w) {
        std::printf("  %-6s %lld sent, %lld ok, %lld nack, %lld wrong, %lld "
                    "missing, p50 %.3f ms, p99 %.3f ms, max %.3f ms, lag p99 "
                    "%.3f ms, lag max %.3f ms\n",
                    name, static_cast<long long>(w.sent),
                    static_cast<long long>(w.ok), static_cast<long long>(w.nacks),
                    static_cast<long long>(w.mismatches),
                    static_cast<long long>(w.missing),
                    median(w.lat_ms), quantile(w.lat_ms, 0.99),
                    quantile(w.lat_ms, 1.0), quantile(w.lag_ms, 0.99),
                    quantile(w.lag_ms, 1.0));
        r.lag_ms.insert(r.lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
        if (w.transport_lost) r.dead = true;
    };

    // steady: light, heavy, then the max_qps ladder + bisection.
    r.before_light = s.engine->stats();
    {
        obs::Span span("hsbench.steady.light", "hsbench");
        r.light = conn.run(poisson_schedule(wl.light_qps, light_s, base + 1));
    }
    note("light", r.light);
    r.after_light = s.engine->stats();
    if (!r.dead) {
        obs::Span span("hsbench.steady.heavy", "hsbench");
        r.heavy = conn.run(poisson_schedule(wl.heavy_qps, heavy_s, base + 2));
        note("heavy", r.heavy);
    }
    r.after_heavy = s.engine->stats();
    if (!r.dead && search_max_qps) {
        obs::Span span("hsbench.steady.max_qps", "hsbench");
        int probe = 0;
        auto passes = [&](double qps) {
            const WindowResult w =
                conn.run(poisson_schedule(qps, probe_s, base + 10 + probe++));
            note("probe", w);
            r.probe_requests += w.sent;
            r.probe_mismatches += w.mismatches;
            return !r.dead && sustained(w);
        };
        // Ladder up (or down, if the start already fails) by kLadderGrowth
        // to bracket the knee, then two geometric bisections.
        double lo = 0.0, hi = 0.0;
        double qps = wl.ladder_start_qps;
        if (passes(qps)) {
            lo = qps;
            for (int i = 0; i < kLadderSteps && !r.dead; ++i) {
                qps *= kLadderGrowth;
                if (!passes(qps)) {
                    hi = qps;
                    break;
                }
                lo = qps;
            }
        } else {
            hi = qps;
            for (int i = 0; i < kLadderSteps && !r.dead; ++i) {
                qps /= kLadderGrowth;
                if (passes(qps)) {
                    lo = qps;
                    break;
                }
                hi = qps;
            }
        }
        if (lo > 0.0 && hi > 0.0) {
            for (int i = 0; i < 2 && !r.dead; ++i) {
                const double mid = std::sqrt(lo * hi);
                (passes(mid) ? lo : hi) = mid;
            }
        }
        r.max_qps = lo;
    }

    // fleet: bursty mix + hot reloads over a second connection.
    if (!r.dead) {
        obs::Span span("hsbench.fleet", "hsbench");
        Connection admin(s);
        std::atomic<bool> stop{false};
        std::thread reloader([&] {
            const std::int64_t t0 = clock_ns();
            for (int k = 1; !stop.load(); ++k) {
                sleep_until_ns(t0 + static_cast<std::int64_t>(k * kReloadEverySec * 1e9));
                if (stop.load()) break;
                Stopwatch w;
                bool ok = false;
                std::string why;
                try {
                    const net::AdminResponse resp =
                        admin.client().reload(kMix[0].name, s.hswt_path);
                    ok = resp.ok;
                    why = resp.text;
                } catch (const std::exception& e) {
                    why = e.what();
                }
                // Only this thread touches the reload fields until join().
                r.reload_ms.push_back(w.seconds() * 1e3);
                if (!ok) {
                    ++r.reload_failed;
                    std::printf("  reload failed: %s\n", why.c_str());
                }
            }
        });
        r.fleet = conn.run(fleet_schedule(wl.fleet_qps, fleet_s, base + 3));
        stop.store(true);
        reloader.join();
        note("fleet", r.fleet);
    }
}

// ---------------------------------------------------------------------------
// Traced-run probes: time each module's public entry points from here.

double engine_us(const std::shared_ptr<const infer::FrozenModel>& plan,
                 const Session& s, int batch, int reps,
                 std::vector<infer::LayerProfile>* profile = nullptr) {
    infer::Engine engine(plan, batch);
    std::vector<float> in;
    for (int b = 0; b < batch; ++b)
        in.insert(in.end(), s.pool[static_cast<std::size_t>(b)].begin(),
                  s.pool[static_cast<std::size_t>(b)].end());
    std::vector<float> out(static_cast<std::size_t>(plan->output_elems * batch));
    for (int i = 0; i < 10; ++i) engine.run(in, batch, out);
    engine.reset_profile();
    const double t = median_time_s(reps, [&] { engine.run(in, batch, out); });
    if (profile) *profile = engine.layer_profile();
    return t * 1e6;
}

/// Exclusive wall time of the prune call's stages from the recorded span
/// events: each instant inside [start, end] goes to the first stage (in
/// eval, finetune, prepare order) that has a span open at that instant.
/// Candidate-evaluation spans of concurrent lanes overlap, so this is the
/// union, not the sum.
std::vector<double> stage_split(std::int64_t start_us, std::int64_t end_us) {
    std::vector<std::tuple<std::int64_t, int, int>> edges;  // t, stage, +1/-1
    for (const auto& e : obs::span_events()) {
        int stage = -1;
        if (e.name.rfind("search.eval/", 0) == 0) stage = 0;
        else if (e.name == "finetune") stage = 1;
        else if (e.name == "search.prepare") stage = 2;
        if (stage < 0) continue;
        const std::int64_t a = std::max(e.start_us, start_us);
        const std::int64_t b = std::min(e.start_us + e.duration_us, end_us);
        if (b <= a) continue;
        edges.emplace_back(a, stage, +1);
        edges.emplace_back(b, stage, -1);
    }
    std::sort(edges.begin(), edges.end());
    std::vector<double> out(3, 0.0);
    int open[3] = {0, 0, 0};
    std::int64_t prev = start_us;
    for (const auto& [t, stage, d] : edges) {
        for (int k = 0; k < 3; ++k) {
            if (open[k] > 0) {
                out[static_cast<std::size_t>(k)] += static_cast<double>(t - prev) * 1e-6;
                break;
            }
        }
        open[stage] += d;
        prev = t;
    }
    return out;
}

void layer_probes(Session& s, Metrics& m,
                  const std::string& tmp_dir) {
    const auto& data = *s.data;
    // core: one layer search at two fan-outs (the measured speedup), and
    // the duplicate-candidate share seen by a counting evaluator.
    {
        models::VggModel w2 = s.base;
        models::VggModel w1 = s.base;
        Stopwatch a;
        (void)core::headstart_search_layer(w2, kSearchProbeLayer, data,
                                           prune_config(2));
        m.set("core.search_layer_s", a.seconds(), "s");
        Stopwatch b;
        (void)core::headstart_search_layer(w1, kSearchProbeLayer, data,
                                           prune_config(1));
        m.set("core.search_layer_w1_s", b.seconds(), "s");
    }
    {
        nn::Sequential net = s.base.net;
        const int pos = s.base.conv_indices[kSearchProbeLayer];
        const core::HeadStartConfig cfg = prune_config(1);
        const data::Batch reward =
            data::sample_subset(data.train(), cfg.reward_subset, cfg.seed + 5);
        const Tensor prefix = net.forward_range(reward.images, 0, pos, false);
        auto& conv = net.layer_as<nn::Conv2d>(pos);
        const double acc_orig = std::max(nn::evaluate_batch(net, reward), 1e-3);
        const std::size_t per_iter =
            static_cast<std::size_t>(1 + cfg.search.monte_carlo_k);
        std::vector<std::vector<float>> seen;
        std::int64_t evals = 0, dups = 0;
        core::ActionEvaluator counting = [&](std::span<const float> action) {
            if (seen.size() == per_iter) seen.clear();
            std::vector<float> a(action.begin(), action.end());
            if (std::find(seen.begin(), seen.end(), a) != seen.end()) ++dups;
            seen.push_back(std::move(a));
            ++evals;
            conv.set_output_mask(action);
            return nn::accuracy(net.forward_range(prefix, pos, net.size(), false),
                                reward.labels);
        };
        core::SearchConfig sc = cfg.search;
        sc.seed = cfg.seed * 131 + static_cast<std::uint64_t>(pos);
        core::ActionSearch search(conv.out_channels(), counting, acc_orig, sc);
        (void)search.run();
        m.set("core.eval_dup_share",
              evals ? static_cast<double>(dups) / static_cast<double>(evals) : 0.0,
              "share");
    }

    // nn: unit costs of candidate evaluation, fine-tuning and checkpoints.
    {
        models::VggModel model = s.base;
        const data::Batch reward =
            data::sample_subset(data.train(), kRewardSubset, 52);
        m.set("nn.eval_ms",
              1e3 * median_time_s(5, [&] { (void)nn::evaluate_batch(model.net, reward); }),
              "ms");
        data::DataLoader loader(data.train(), 32, true, 48);
        Stopwatch w;
        (void)nn::finetune(model.net, loader, 1, 2e-3f, 5e-4f);
        m.set("nn.finetune_epoch_s", w.seconds(), "s");
        const std::string path = tmp_dir + "/checkpoint.bin";
        models::VggModel other = s.base;
        m.set("nn.checkpoint_ms", 1e3 * median_time_s(5, [&] {
                  nn::save_parameters(model.net, path);
                  nn::load_parameters(other.net, path);
              }),
              "ms");
    }

    // pruning: structural surgery on one layer.
    {
        std::vector<double> t;
        for (int i = 0; i < 5; ++i) {
            models::VggModel model = s.base;
            pruning::ConvChain chain{&model.net, model.conv_indices,
                                     model.classifier_index};
            std::vector<int> keep;
            const int maps =
                model.net.layer_as<nn::Conv2d>(model.conv_indices[kSearchProbeLayer])
                    .out_channels();
            for (int c = 0; c < maps; c += 2) keep.push_back(c);
            Stopwatch w;
            pruning::prune_feature_maps(chain, kSearchProbeLayer, keep);
            t.push_back(w.seconds());
        }
        m.set("pruning.surgery_ms", 1e3 * median(t), "ms");
    }

    // infer: the deploy steps of set-up, tactics, and engine compute.
    {
        const Shape chw{3, 16, 16};
        std::shared_ptr<const infer::FrozenModel> fp32;
        m.set("infer.freeze_ms", 1e3 * median_time_s(3, [&] {
                  fp32 = std::make_shared<const infer::FrozenModel>(
                      infer::freeze(s.serve_vgg.net, chw));
              }),
              "ms");
        const Tensor calib = calibration_batch(data, 8);
        Stopwatch q;
        const infer::FrozenModel plan = infer::quantize(*fp32, calib);
        m.set("infer.quantize_s", q.seconds(), "s");
        const std::string path = tmp_dir + "/probe.hswt";
        m.set("infer.hswt_roundtrip_ms", 1e3 * median_time_s(3, [&] {
                  infer::save_frozen(plan, path);
                  (void)infer::load_frozen(path);
              }),
              "ms");
        const auto& served = *s.models[0].plan;
        std::int64_t tiled = 0, stacked = 0, vnni = 0;
        for (const auto& op : served.ops) {
            if (op.kind != infer::OpKind::kConv && op.kind != infer::OpKind::kLinear)
                continue;
            tiled += op.tactic.ways > 1;
            stacked += op.tactic.batch_stack;
            vnni += op.tactic.kernel == QKernel::kVnni;
        }
        m.set("infer.tactics_tiled", static_cast<double>(tiled), "count");
        m.set("infer.tactics_stacked", static_cast<double>(stacked), "count");
        m.set("infer.tactics_vnni", static_cast<double>(vnni), "count");

        std::vector<infer::LayerProfile> profile;
        m.set("infer.engine_b1_us", engine_us(s.models[0].plan, s, 1, 300, &profile),
              "us");
        m.set("infer.engine_b8_us", engine_us(s.models[0].plan, s, 8, 100), "us");
        for (const auto& p : profile) {
            if (p.kind != "conv" && p.kind != "linear") continue;
            m.set("infer.op." + p.name + "_us",
                  p.calls ? static_cast<double>(p.total_ns) / 1e3 /
                                static_cast<double>(p.calls)
                          : 0.0,
                  "us");
        }
        m.set("infer.engine_resnet_b1_us", engine_us(s.models[2].plan, s, 1, 300),
              "us");
        m.set("infer.engine_fp32_b1_us", engine_us(s.models[1].plan, s, 1, 300),
              "us");
    }

    // net: codec cost of one request frame.
    {
        const auto& img = s.pool[0];
        net::Frame frame;
        std::int64_t reps = 2000;
        Stopwatch w;
        for (std::int64_t i = 0; i < reps; ++i) {
            const std::string bytes = net::encode_request(
                static_cast<std::uint64_t>(i), kRequestDeadlineUs, true, img, 0);
            (void)net::decode_frame(bytes, frame);
        }
        m.set("net.codec_ns", w.seconds() * 1e9 / static_cast<double>(reps), "ns");
    }
}

/// In-process twin of the light window: ServingEngine::submit straight to
/// completion, no socket. Returns latencies (ms, from the due time).
WindowResult inproc_light(Session& s, const Workload& wl, std::uint64_t seed,
                          double seconds) {
    const auto sched = poisson_schedule(wl.light_qps, seconds, seed);
    const std::size_t n = sched.size();
    std::vector<std::atomic<std::int64_t>> done_ns(n);
    std::vector<std::atomic<int>> state(n);
    for (std::size_t i = 0; i < n; ++i) {
        done_ns[i].store(0);
        state[i].store(0);
    }
    std::atomic<std::size_t> done{0};
    WindowResult res;
    const std::int64_t start = clock_ns() + 1'000'000;
    const ServedModel& model = s.models[0];
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t due = start + sched[i].due_ns;
        sleep_until_ns(due);
        res.lag_ms.push_back(static_cast<double>(clock_ns() - due) * 1e-6);
        Tensor image({3, 16, 16}, s.pool[sched[i].img]);
        infer::SubmitOptions opts;
        opts.deadline_us = static_cast<std::int64_t>(kRequestDeadlineUs);
        opts.model = model.name;
        const std::uint32_t img = sched[i].img;
        const infer::SubmitResult sr = s.engine->submit(
            std::move(image), opts, [&, i, img](infer::AsyncOutcome&& out) {
                const bool ok = out.ok && reply_ok(model, img, out.output.data());
                done_ns[i].store(clock_ns());
                state[i].store(ok ? 1 : 3);
                done.fetch_add(1);
            });
        if (!sr.accepted()) {
            state[i].store(2);
            done.fetch_add(1);
        }
    }
    const std::int64_t limit = start + (n ? sched.back().due_ns : 0) + kGraceNs;
    while (done.load() < n && clock_ns() < limit)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    res.sent = static_cast<std::int64_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (state[i].load() == 1) {
            ++res.ok;
            const double ms =
                static_cast<double>(done_ns[i].load() - (start + sched[i].due_ns)) * 1e-6;
            res.lat_ms.push_back(ms);
            res.due_lat.emplace_back(sched[i].due_ns, ms);
        }
    }
    if (done.load() < n) {
        // Completions may still fire into this frame's state; stop the
        // engine before returning so none can.
        res.transport_lost = true;
        s.server->stop();
        s.engine->stop();
    }
    return res;
}

// ---------------------------------------------------------------------------
// Environment stamp.

std::string tactic_digest(const infer::FrozenModel& plan) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const auto& t = plan.ops[i].tactic;
        mix(i);
        mix(static_cast<std::uint64_t>(t.kernel));
        mix(t.ways);
        mix(t.wbits);
        mix(t.batch_stack);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

void print_env(const Session& s, const Workload& wl) {
    __builtin_cpu_init();
    std::printf(
        "env {\"nproc\":%u,\"avx512f\":%s,\"avx512bw\":%s,\"avx512vnni\":%s,"
        "\"vnni_kernel\":%s,\"scale\":\"VGG-16 width 0.125, 16x16 inputs, %d "
        "classes, %d training images\",\"workload\":\"%s\","
        "\"tactic_digest\":\"%s\"}\n",
        std::thread::hardware_concurrency(),
        __builtin_cpu_supports("avx512f") ? "true" : "false",
        __builtin_cpu_supports("avx512bw") ? "true" : "false",
        __builtin_cpu_supports("avx512vnni") ? "true" : "false",
        cpu_supports_vnni() ? "true" : "false", kClasses,
        kClasses * kTrainPerClass, wl.name, tactic_digest(*s.models[0].plan).c_str());
}

void print_result(bool correct, const Tally& tally, const Metrics& m) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value, unit] : m.rows) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v.c_str());
        else if (k == "--trace") a.trace = v == "1";
        else throw Error("hsbench: unknown flag " + k);
    }
    return a;
}

int run(const Args& args) {
    const Workload* wl = nullptr;
    for (const auto& w : kWorkloads)
        if (args.workload == w.name) wl = &w;
    if (!wl) throw Error("hsbench: unknown workload '" + args.workload + "'");
    if (args.seconds < 1.0) throw Error("hsbench: --seconds must be >= 1");

    set_log_level(LogLevel::kWarn);
    obs::set_enabled(false);
    const std::string tmp_dir =
        ".bench_build/tmp/run-" + std::to_string(static_cast<long>(getpid()));
    std::filesystem::create_directories(tmp_dir);

    Tally tally;
    Metrics m;

    // Set-up, repeated; the last session is the one measured.
    std::vector<double> setup_s;
    Session s;
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        s.teardown();
        Stopwatch w;
        build_session(s, *wl, args.seed, tmp_dir);
        setup_s.push_back(w.seconds());
    }
    tally.add(kModels * kWarmupPerModel, s.warmup_failed);
    {
        std::string list;
        for (double t : setup_s) list += " " + std::to_string(t);
        std::printf("setup_s:%s\n", list.c_str());
    }
    print_env(s, *wl);

    bool correct = true;
    PruneRun prune = run_prune(s);
    tally.add(prune.layers, prune.bad_layers);

    ServeResults sr;
    WindowResult inproc;
    double traced_prune_s = 0.0;
    if (args.trace) {
        // Traced repeat of the prune call: observability must not perturb
        // the search, so its trace must equal the untraced one.
        obs::set_enabled(true);
        const std::int64_t evals0 =
            obs::Registry::instance().counter("search.action_evaluations").value();
        const std::int64_t iters0 =
            obs::Registry::instance().counter("search.iterations").value();
        const std::int64_t busy0 =
            obs::Registry::instance().counter("parallel.busy_us").value();
        const std::int64_t fan0 =
            obs::Registry::instance().counter("parallel.fanout_wall_us").value();
        const PruneRun traced = run_prune(s);
        const bool same = same_trace(prune.result, traced.result);
        tally.add(1, same ? 0 : 1);
        correct = correct && same;
        auto& reg = obs::Registry::instance();
        const auto split = stage_split(traced.start_us, traced.end_us);
        m.set("core.search_iters",
              static_cast<double>(reg.counter("search.iterations").value() - iters0),
              "count");
        m.set("core.evals",
              static_cast<double>(reg.counter("search.action_evaluations").value() -
                                  evals0),
              "count");
        m.set("core.stage.eval_s", split[0], "s");
        m.set("core.stage.finetune_s", split[1], "s");
        m.set("core.stage.prepare_s", split[2], "s");
        m.set("core.stage.other_s", traced.wall_s - split[0] - split[1] - split[2],
              "s");
        m.set("core.pipeline_stall_p50_us",
              static_cast<double>(
                  reg.hdr("search.pipeline_stall_us").value_at_quantile(0.5)),
              "us");
        const double busy =
            static_cast<double>(reg.counter("parallel.busy_us").value() - busy0);
        const double fan =
            static_cast<double>(reg.counter("parallel.fanout_wall_us").value() - fan0);
        m.set("core.parallel_efficiency",
              wl->workers > 1 && fan > 0
                  ? std::min(1.0, busy / (fan * wl->workers))
                  : 1.0,
              "share");
        traced_prune_s = traced.wall_s;
        m.set("trace.prune_overhead", traced.wall_s / prune.wall_s - 1.0, "share");
        std::printf("traced prune %.3f s vs untraced %.3f s\n", traced.wall_s,
                    prune.wall_s);

        layer_probes(s, m, tmp_dir);
        // Same schedule as the wire light window (seed and length).
        inproc = inproc_light(s, *wl, args.seed * 1'000'003ULL + 1, 0.3 * args.seconds);
        tally.add(inproc.sent, inproc.failed());
        m.set("infer.inproc_p50_us", 1e3 * sliced(inproc, 0.50, kSliceNs), "us");
        m.set("infer.inproc_p99_us", 1e3 * quantile(inproc.lat_ms, 0.99), "us");
        m.set("infer.queue_wait_p50_us",
              static_cast<double>(reg.hdr("serve.queue_wait_us").value_at_quantile(0.5)),
              "us");
        m.set("infer.batch_compute_p50_us",
              static_cast<double>(
                  reg.hdr("serve.batch_compute_us").value_at_quantile(0.5)),
              "us");
        if (inproc.transport_lost) sr.dead = true;
    }

    if (!sr.dead && s.engine)
        run_serving(s, *wl, args.seed, args.seconds, args.trace, sr);
    for (const WindowResult* w : {&sr.light, &sr.heavy, &sr.fleet})
        tally.add(w->sent, w->failed());
    // max_qps probes beyond the knee may be NACKed by design; a wrong
    // output is a failure at any rate.
    tally.add(sr.probe_requests, sr.probe_mismatches);
    tally.add(static_cast<std::int64_t>(sr.reload_ms.size()), sr.reload_failed);
    if (sr.dead) {
        correct = false;
        tally.add(1, 1);
    }
    const double light_p50 = sliced(sr.light, 0.50, kSliceNs);
    // Printed, not gated: on a shared 4-core VM tails move up to 2x
    // between runs of the same code (scheduler wake-up jitter), and the
    // reload round trip's quartile spread reached 28%.
    std::printf("tails {\"light_p90_ms\": %.6f, \"light_p99_ms\": %.6f, "
                "\"heavy_p90_ms\": %.6f, \"heavy_p99_ms\": %.6f, "
                "\"fleet_p90_ms\": %.6f, \"fleet_p99_ms\": %.6f, "
                "\"gen_lag_p99_ms\": %.6f, \"reload_p50_ms\": %.6f}\n",
                sliced(sr.light, 0.90, kSliceNs), quantile(sr.light.lat_ms, 0.99),
                sliced(sr.heavy, 0.90, kSliceNs), quantile(sr.heavy.lat_ms, 0.99),
                sliced(sr.fleet, 0.90, kSliceNs), quantile(sr.fleet.lat_ms, 0.99),
                quantile(sr.lag_ms, 0.99), median(sr.reload_ms));
    if (!args.trace) {
        m.set("setup_s", median(setup_s), "s");
        m.set("ok_share",
              tally.attempted ? static_cast<double>(tally.attempted - tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 0.0,
              "share");
        m.set("prune_s", prune.wall_s, "s");
        m.set("prune_acc", prune.result.final_accuracy, "share");
        m.set("light_p50_ms", light_p50, "ms");
        m.set("heavy_p50_ms", sliced(sr.heavy, 0.50, kSliceNs), "ms");
        m.set("fleet_p50_ms", sliced(sr.fleet, 0.50, kSliceNs), "ms");
    } else {
        auto mean_batch = [](const infer::ServingStats& a,
                             const infer::ServingStats& b) {
            const auto batches = b.batches - a.batches;
            return batches > 0 ? static_cast<double>(b.completed - a.completed) /
                                     static_cast<double>(batches)
                               : 0.0;
        };
        m.set("infer.mean_batch_light", mean_batch(sr.before_light, sr.after_light),
              "count");
        m.set("infer.mean_batch_heavy", mean_batch(sr.after_light, sr.after_heavy),
              "count");
        const infer::ServingStats st =
            s.engine ? s.engine->stats() : infer::ServingStats{};
        m.set("infer.rejected", static_cast<double>(st.rejected), "count");
        m.set("infer.shed", static_cast<double>(st.shed), "count");
        if (s.engine && s.server) {
            m.set("infer.reload_ms", 1e3 * median_time_s(3, [&] {
                      const auto r = s.registry->reload(kMix[0].name, s.hswt_path);
                      if (!r.ok) tally.add(1, 1);
                  }),
                  "ms");
        } else {
            m.set("infer.reload_ms", 0.0, "ms");
        }
        m.set("infer.reload_rollbacks",
              static_cast<double>(s.registry ? s.registry->reload_stats().rollbacks : 0),
              "count");
        m.set("net.overhead_p50_us",
              1e3 * (light_p50 - sliced(inproc, 0.50, kSliceNs)), "us");
        const net::NetStats ns = s.server ? s.server->stats() : net::NetStats{};
        m.set("net.bytes_per_req",
              ns.frames_in ? static_cast<double>(ns.bytes_in + ns.bytes_out) /
                                 static_cast<double>(ns.frames_in)
                           : 0.0,
              "bytes");
        m.set("gen_lag_p99_ms", quantile(sr.lag_ms, 0.99), "ms");
        // The knee moved by more than half between runs of the same code
        // on a shared 4-core VM, so max_qps is recorded here, ungated.
        m.set("steady.max_qps", sr.max_qps, "1/s");
        // The traced session's end-to-end values, for the overhead report.
        std::printf(
            "traced-e2e {\"prune_s\": %.6f, \"light_p50_ms\": %.6f, "
            "\"heavy_p50_ms\": %.6f, \"fleet_p50_ms\": %.6f}\n",
            traced_prune_s, light_p50, sliced(sr.heavy, 0.50, kSliceNs),
            sliced(sr.fleet, 0.50, kSliceNs));
    }

    std::printf("%s seed %llu: %lld ops, %lld failed (warm-up %lld, prune "
                "layers %lld, reloads %lld/%lld, probe wrong %lld); light p50 "
                "%.3f ms, max_qps %.0f\n",
                wl->name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed),
                static_cast<long long>(s.warmup_failed),
                static_cast<long long>(prune.bad_layers),
                static_cast<long long>(sr.reload_failed),
                static_cast<long long>(sr.reload_ms.size()),
                static_cast<long long>(sr.probe_mismatches), light_p50, sr.max_qps);
    s.teardown();
    std::filesystem::remove_all(tmp_dir);
    print_result(correct && tally.failed == 0, tally, m);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsbench: %s\n", e.what());
        return 1;
    }
}
