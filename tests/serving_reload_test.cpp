// Zero-downtime hot-swap over the loopback TCP stack. The headline test
// hammers one model with pipelined requests while an admin connection
// reloads it 50x — every reply must be correct under EITHER snapshot,
// nothing may drop, and the version must only climb. Its assertions are
// deliberately fault-agnostic (attempts == successes + rollbacks) so the
// CI chaos legs can re-run the exact same binary under
// HS_FAULT="reload.read=short" / "reload.swap=crash" and the invariants
// still hold: an injected deploy failure rolls back, it never corrupts
// serving. The remaining tests disarm faults first and pin down the
// deterministic behaviors: clean swap + version gauge, injected canary
// rollback with a flight dump, corrupt-file rollback, kUnknownModel
// NACKs, v1-frame rejection, admin health, per-model routing, and
// client reconnect across a server restart.

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "net/net.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "obs/flight_recorder.h"
#include "tensor/rng.h"
#include "util/error.h"

namespace fs = std::filesystem;

namespace hs::net {
namespace {

constexpr int kChannels = 4;
constexpr std::size_t kInputElems = kChannels * 2 * 2;

/// Output = per-channel mean of the input: a constant-filled image tags
/// its own response.
std::shared_ptr<const infer::FrozenModel> identity_model() {
    nn::Sequential net;
    net.emplace<nn::GlobalAvgPool>();
    return std::make_shared<const infer::FrozenModel>(
        infer::freeze(net, {kChannels, 2, 2}));
}

/// 1x1 conv with weight scale·I then GAP: output = scale × mean. The
/// hammer test alternates deploys between scale 1 and scale 2, so every
/// reply must equal tag or 2·tag — anything else is a torn swap.
std::shared_ptr<const infer::FrozenModel> scaled_model(float scale) {
    nn::Sequential net;
    Rng rng(1);
    auto& conv = net.emplace<nn::Conv2d>(kChannels, kChannels, 1, 1, 0,
                                         /*bias=*/false, rng);
    Tensor w({kChannels, kChannels, 1, 1});
    for (int f = 0; f < kChannels; ++f)
        w.data()[static_cast<std::size_t>(f * kChannels + f)] = scale;
    conv.replace_parameters(std::move(w), std::nullopt);
    net.emplace<nn::GlobalAvgPool>();
    return std::make_shared<const infer::FrozenModel>(
        infer::freeze(net, {kChannels, 2, 2}));
}

std::vector<float> tagged_input(float tag) {
    return std::vector<float>(kInputElems, tag);
}

infer::ServingConfig fast_config() {
    infer::ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.queue_capacity = 4096;
    return cfg;
}

class ServingReloadTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("reload_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        obs::set_flight_dir(dir_.string());
        obs::flight_reset();
    }
    void TearDown() override {
        fault::disarm();
        obs::flight_reset();
        fs::remove_all(dir_);
    }

    [[nodiscard]] std::string save_model(const char* file, float scale) {
        const fs::path path = dir_ / file;
        infer::save_frozen(*scaled_model(scale), path.string());
        return path.string();
    }

    fs::path dir_;
};

// --- The headline: hammer + 50 reloads, zero dropped or wrong replies.
//
// NOTE: this test must stay FIRST in the file and must NOT call
// fault::disarm() before the traffic — the CI chaos legs arm HS_FAULT
// from the environment and disarm() would silently drop it. Every
// assertion below holds with or without injected reload faults.
TEST_F(ServingReloadTest, HammerWhileReloading) {
    const std::string path_1x = save_model("v1x.hswt", 1.0f);
    const std::string path_2x = save_model("v2x.hswt", 2.0f);

    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    constexpr int kRequests = 1500;
    constexpr int kReloads = 50;
    constexpr float kTagBase = 1.0f;  // tag(i) = kTagBase + i

    Client traffic;
    traffic.connect("127.0.0.1", server.port());

    std::atomic<bool> send_failed{false};
    std::thread sender([&] {
        try {
            for (int i = 0; i < kRequests; ++i) {
                // request_id i+1 carries tag kTagBase + i.
                (void)traffic.send(
                    tagged_input(kTagBase + static_cast<float>(i)), 0);
            }
        } catch (const Error&) {
            send_failed.store(true);
        }
    });

    std::atomic<int> correct{0}, wrong{0}, nacked{0};
    std::thread receiver([&] {
        for (int got = 0; got < kRequests; ++got) {
            Frame frame;
            try {
                frame = traffic.recv_frame();
            } catch (const Error&) {
                return;  // counted as dropped via correct< kRequests
            }
            if (frame.header.type != FrameType::kResponse) {
                nacked.fetch_add(1);
                continue;
            }
            const float tag =
                kTagBase + static_cast<float>(frame.header.request_id - 1);
            const float v = frame.floats().at(0);
            // Either snapshot is a correct answer; a torn swap is not.
            if (std::abs(v - tag) < 1e-4f * tag ||
                std::abs(v - 2.0f * tag) < 1e-4f * tag)
                correct.fetch_add(1);
            else
                wrong.fetch_add(1);
        }
    });

    // The deploy loop: alternate 1x/2x through the full admin path
    // (kReload frame -> server admin thread -> gauntlet -> swap). The
    // version gauge must never move backwards, whatever faults fire.
    Client admin;
    admin.connect("127.0.0.1", server.port());
    std::int64_t last_version =
        engine.registry()->find("default")->version;
    int admin_ok = 0;
    for (int i = 0; i < kReloads; ++i) {
        const AdminResponse resp =
            admin.reload("default", (i % 2 == 0) ? path_2x : path_1x);
        if (resp.ok) ++admin_ok;
        const std::int64_t version =
            engine.registry()->find("default")->version;
        EXPECT_GE(version, last_version) << "version moved backwards";
        last_version = version;
    }

    sender.join();
    receiver.join();
    server.stop();
    engine.stop();

    EXPECT_FALSE(send_failed.load());
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(nacked.load(), 0);
    EXPECT_EQ(correct.load(), kRequests) << "dropped replies";

    // Fault-agnostic deploy accounting: every attempt either swapped or
    // rolled back, and the version advanced exactly once per success.
    const auto rs = engine.registry()->reload_stats();
    EXPECT_EQ(rs.attempts, kReloads);
    EXPECT_EQ(rs.successes + rs.rollbacks, rs.attempts);
    EXPECT_EQ(admin_ok, rs.successes);
    EXPECT_EQ(last_version, 1 + rs.successes);
}

TEST_F(ServingReloadTest, CleanSwapServesNewModelAndBumpsVersion) {
    fault::disarm();
    const std::string path_2x = save_model("v2x.hswt", 2.0f);

    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    CallResult res = client.call_once(tagged_input(5.0f), 0);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 5.0f, 1e-4f);

    const AdminResponse verdict = client.reload("default", path_2x);
    ASSERT_TRUE(verdict.ok) << verdict.text;
    EXPECT_NE(verdict.text.find("v1 -> v2"), std::string::npos)
        << verdict.text;

    // Same connection, next frame: already routed to the new snapshot.
    res = client.call_once(tagged_input(5.0f), 0);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 10.0f, 1e-4f);

    const std::string health = client.health();
    EXPECT_NE(health.find("\"name\":\"default\""), std::string::npos);
    EXPECT_NE(health.find("\"version\":2"), std::string::npos);
    EXPECT_NE(health.find("\"reload_successes\":1"), std::string::npos);

    server.stop();
    engine.stop();
}

TEST_F(ServingReloadTest, InjectedCanaryFailureRollsBackAndKeepsServing) {
    fault::disarm();
    const std::string path_2x = save_model("v2x.hswt", 2.0f);

    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());

    fault::arm("reload.validate=fail#1");
    const AdminResponse verdict = client.reload("default", path_2x);
    EXPECT_FALSE(verdict.ok);
    EXPECT_NE(verdict.text.find("validate"), std::string::npos)
        << verdict.text;
    fault::disarm();

    // Incumbent untouched, still serving; the rollback left evidence.
    EXPECT_EQ(engine.registry()->find("default")->version, 1);
    const CallResult res = client.call_once(tagged_input(3.0f), 0);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 3.0f, 1e-4f);
    EXPECT_GE(obs::flight_dump_count(), 1);

    server.stop();
    engine.stop();
}

TEST_F(ServingReloadTest, CorruptFileRollsBackAtReadStage) {
    fault::disarm();
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    const fs::path bad = dir_ / "torn.hswt";
    {
        std::ofstream out(bad, std::ios::binary);
        out << "HSWT but the payload is garbage";
    }

    Client client;
    client.connect("127.0.0.1", server.port());
    const AdminResponse verdict = client.reload("default", bad.string());
    EXPECT_FALSE(verdict.ok);
    EXPECT_NE(verdict.text.find("read"), std::string::npos) << verdict.text;
    EXPECT_EQ(engine.registry()->find("default")->version, 1);

    server.stop();
    engine.stop();
}

TEST_F(ServingReloadTest, MultiModelRoutingAndUnknownModelNack) {
    fault::disarm();
    auto registry = std::make_shared<infer::ModelRegistry>();
    registry->add("plain", identity_model());
    registry->add("double", scaled_model(2.0f));
    infer::ServingEngine engine(registry, fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());

    CallResult res = client.call_once(tagged_input(4.0f), 0, false, 0);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 4.0f, 1e-4f);
    res = client.call_once(tagged_input(4.0f), 0, false, 1);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 8.0f, 1e-4f);

    // An unregistered id is a typed, terminal NACK — call() must not
    // burn retries on it.
    res = client.call(tagged_input(4.0f), 0, /*max_retries=*/5, false, 7);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kUnknownModel);
    EXPECT_EQ(res.retries, 0);

    // Per-model stats rows surfaced through the engine.
    const auto stats = engine.stats();
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].name, "plain");
    EXPECT_EQ(stats.models[1].name, "double");
    EXPECT_EQ(stats.models[0].completed + stats.models[1].completed, 2);

    server.stop();
    engine.stop();
}

// A v1 client's frame is not decoded at all: the server answers with a
// single kBadRequest NACK and closes the connection.
TEST_F(ServingReloadTest, V1FrameGetsBadRequestThenClose) {
    fault::disarm();
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    ScopedFd fd = connect_tcp("127.0.0.1", server.port());
    std::string bytes = encode_request(42, 0, false, tagged_input(6.0f));
    bytes[4] = 1;  // protocol v1
    write_all(fd.get(), bytes.data(), bytes.size());

    // Read until the server closes: exactly one frame must have arrived.
    // The receive timeout turns a server that keeps the connection open
    // into a test failure instead of a hang.
    const timeval timeout{5, 0};
    ASSERT_EQ(0, ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                              sizeof(timeout)));
    std::string rbuf;
    char chunk[4096];
    for (;;) {
        const ssize_t got = ::read(fd.get(), chunk, sizeof(chunk));
        if (got <= 0) break;
        rbuf.append(chunk, static_cast<std::size_t>(got));
    }
    Frame frame;
    const DecodeResult res = decode_frame(rbuf, frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk) << res.error;
    EXPECT_EQ(res.consumed, rbuf.size());
    EXPECT_EQ(frame.header.type, FrameType::kNack);
    const auto nack = parse_nack(frame);
    ASSERT_TRUE(nack.has_value());
    EXPECT_EQ(nack->reason, NackReason::kBadRequest);

    server.stop();
    engine.stop();
    EXPECT_EQ(server.stats().bad_frames, 1);
    EXPECT_EQ(server.stats().frames_in, 0);
}

// A rolling server restart is invisible to call(): the client re-dials
// the remembered endpoint under Backoff and resends.
TEST_F(ServingReloadTest, ClientReconnectsAcrossServerRestart) {
    fault::disarm();
    infer::ServingEngine engine(identity_model(), fast_config());
    auto first = std::make_unique<Server>(engine, ServerConfig{});
    first->start();
    const std::uint16_t port = first->port();

    Client client;
    client.connect("127.0.0.1", port);
    CallResult res = client.call(tagged_input(2.0f), 0, 3);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(client.stats().reconnects, 0);

    first->stop();
    first.reset();

    ServerConfig cfg;
    cfg.port = port;  // SO_REUSEADDR makes the re-bind race-free here
    Server second(engine, cfg);
    second.start();

    res = client.call(tagged_input(9.0f), 0, /*max_retries=*/8);
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output.at(0), 9.0f, 1e-4f);
    EXPECT_GE(client.stats().reconnects, 1);

    second.stop();
    engine.stop();
}

} // namespace
} // namespace hs::net
