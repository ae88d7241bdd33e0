// Loopback integration tests of the hs::net epoll front-end: echo through
// an identity model, pipelining and multi-client fan-in, typed NACKs
// (admission rejection with retry-after, malformed frames, wrong shape,
// deadline shed, draining), Backoff-driven client retries, the graceful
// drain sequence, and injected transport faults (net.read short/reset).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "net/net.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "util/error.h"

namespace hs::net {
namespace {

constexpr int kChannels = 4;
constexpr std::size_t kInputElems = kChannels * 2 * 2;

// Output equals the (constant) input per channel — every response names
// the request that produced it.
std::shared_ptr<const infer::FrozenModel> identity_model() {
    nn::Sequential net;
    net.emplace<nn::GlobalAvgPool>();
    return std::make_shared<const infer::FrozenModel>(
        infer::freeze(net, {kChannels, 2, 2}));
}

std::vector<float> tagged_input(float id) {
    return std::vector<float>(kInputElems, id);
}

infer::ServingConfig fast_config() {
    infer::ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 4;
    cfg.queue_capacity = 256;
    return cfg;
}

class NetServerTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(NetServerTest, LoopbackEcho) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    const CallResult res = client.call_once(tagged_input(7.5f), 0);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.output.size(), static_cast<std::size_t>(kChannels));
    for (const float v : res.output) EXPECT_NEAR(v, 7.5f, 1e-6f);

    client.close();
    server.stop();
    engine.stop();
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 1);
    EXPECT_EQ(stats.frames_in, 1);
    EXPECT_EQ(stats.responses, 1);
    EXPECT_EQ(stats.bad_frames, 0);
    EXPECT_GT(stats.bytes_in, 0);
    EXPECT_GT(stats.bytes_out, 0);
}

// One connection, many requests in flight: the sender fires the whole
// burst before the receiver starts draining, and every response carries
// its own request's payload regardless of arrival order.
TEST_F(NetServerTest, PipelinedRequestsOnOneConnection) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    constexpr int kRequests = 32;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kRequests; ++i)
        ids.push_back(client.send(tagged_input(static_cast<float>(i)), 0));

    int matched = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Frame frame = client.recv_frame();
        ASSERT_EQ(frame.header.type, FrameType::kResponse);
        // request id k carried payload value k - ids.front()
        const float expect =
            static_cast<float>(frame.header.request_id - ids.front());
        for (const float v : frame.floats()) ASSERT_NEAR(v, expect, 1e-6f);
        ++matched;
    }
    EXPECT_EQ(matched, kRequests);
    server.stop();
    engine.stop();
    EXPECT_EQ(server.stats().frames_in, kRequests);
    EXPECT_EQ(server.stats().responses, kRequests);
}

// Several concurrent clients land on different event loops and all get
// their own answers back.
TEST_F(NetServerTest, MultipleConcurrentClients) {
    infer::ServingEngine engine(identity_model(), fast_config());
    ServerConfig cfg;
    cfg.event_loops = 3;
    Server server(engine, cfg);
    server.start();

    constexpr int kClients = 6;
    constexpr int kPerClient = 8;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                Client client;
                client.connect("127.0.0.1", server.port());
                for (int i = 0; i < kPerClient; ++i) {
                    const float tag = static_cast<float>(c * 100 + i);
                    const CallResult res =
                        client.call(tagged_input(tag), 0, /*max_retries=*/8);
                    if (!res.ok || res.output.empty() ||
                        std::abs(res.output[0] - tag) > 1e-5f)
                        failures.fetch_add(1);
                }
            } catch (const Error&) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    server.stop();
    engine.stop();
    EXPECT_EQ(server.stats().accepted, kClients);
}

// A forced admission rejection surfaces as a typed NACK whose retry-after
// microseconds round-trip the wire intact, and Backoff-driven call()
// turns it into a successful retry.
TEST_F(NetServerTest, NackCarriesRetryAfterAndClientRetries) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());

    fault::arm("serving.submit=full:1234#1");
    CallResult res = client.call_once(tagged_input(1.0f), 0);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kQueueFull);
    EXPECT_EQ(res.retry_after_us, 1234u);

    fault::arm("serving.submit=overload:4321#1");
    res = client.call(tagged_input(2.0f), 0, /*max_retries=*/4);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.retries, 1);  // one NACK, then the retry landed
    ASSERT_FALSE(res.output.empty());
    EXPECT_NEAR(res.output[0], 2.0f, 1e-6f);

    server.stop();
    engine.stop();
    EXPECT_GE(server.stats().nacks, 2);
}

// A malformed frame gets the kBadRequest goodbye and the connection is
// closed; a fresh connection still works (the server survived).
TEST_F(NetServerTest, MalformedFrameNackedAndConnectionDropped) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    ScopedFd raw = connect_tcp("127.0.0.1", server.port());
    const char garbage[] = "this is not a frame at all, sorry";
    write_all(raw.get(), garbage, sizeof(garbage));

    // Collect the server's reply until it closes: must decode to exactly
    // one kBadRequest NACK.
    std::string got;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(raw.get(), buf, sizeof(buf));
        if (n <= 0) break;
        got.append(buf, static_cast<std::size_t>(n));
    }
    Frame frame;
    const DecodeResult dec = decode_frame(got, frame);
    ASSERT_EQ(dec.status, DecodeStatus::kOk);
    EXPECT_EQ(dec.consumed, got.size());
    EXPECT_EQ(frame.header.type, FrameType::kNack);
    const auto nack = parse_nack(frame);
    ASSERT_TRUE(nack.has_value());
    EXPECT_EQ(nack->reason, NackReason::kBadRequest);
    raw.reset();

    Client client;
    client.connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.call_once(tagged_input(3.0f), 0).ok);
    server.stop();
    engine.stop();
    EXPECT_EQ(server.stats().bad_frames, 1);
}

// A well-formed frame whose tensor does not match the model (wrong
// element count, wrong precision flag) is NACKed kBadRequest but the
// connection stays usable.
TEST_F(NetServerTest, WrongShapeOrPrecisionNackedConnectionSurvives) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());

    CallResult res =
        client.call_once(std::vector<float>(kInputElems + 3, 1.0f), 0);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kBadRequest);

    // fp32 model, int8-flagged request: precision mismatch.
    res = client.call_once(tagged_input(1.0f), 0, /*int8_flag=*/true);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kBadRequest);

    // Same connection, valid request: still served.
    res = client.call_once(tagged_input(4.0f), 0);
    EXPECT_TRUE(res.ok);
    server.stop();
    engine.stop();
}

// A request accepted by the engine but shed in the queue (deadline
// expired behind a stalled worker) comes back as a kShedDeadline NACK —
// the completion path through the engine lock and the loop mailbox.
TEST_F(NetServerTest, ShedDeadlineBecomesTypedNack) {
    infer::ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 1;
    cfg.queue_capacity = 64;
    infer::ServingEngine engine(identity_model(), cfg);
    Server server(engine, ServerConfig{});
    server.start();

    fault::arm("serving.worker=delay:300000");  // every batch stalls 300 ms

    Client client;
    client.connect("127.0.0.1", server.port());
    // Occupy the worker with a deadline-less request…
    const std::uint64_t busy_id = client.send(tagged_input(1.0f), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // …then queue one whose 50 ms deadline expires mid-stall.
    const std::uint64_t doomed_id = client.send(tagged_input(2.0f), 50'000);

    bool saw_shed = false, saw_busy = false;
    for (int i = 0; i < 2; ++i) {
        const Frame frame = client.recv_frame();
        if (frame.header.request_id == doomed_id) {
            ASSERT_EQ(frame.header.type, FrameType::kNack);
            const auto nack = parse_nack(frame);
            ASSERT_TRUE(nack.has_value());
            EXPECT_EQ(nack->reason, NackReason::kShedDeadline);
            saw_shed = true;
        } else if (frame.header.request_id == busy_id) {
            EXPECT_EQ(frame.header.type, FrameType::kResponse);
            saw_busy = true;
        }
    }
    EXPECT_TRUE(saw_shed);
    EXPECT_TRUE(saw_busy);
    server.stop();
    engine.stop();
}

// The SIGTERM sequence: begin_drain() NACKs new requests with kDraining
// (terminal for the client's retry loop), engine.drain() resolves what
// was accepted, server.drain() reports quiescence, and call() does NOT
// retry a draining server.
TEST_F(NetServerTest, DrainSequenceNacksNewWorkAndGoesQuiescent) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.call_once(tagged_input(1.0f), 0).ok);

    server.begin_drain();
    const CallResult res = client.call(tagged_input(2.0f), 0,
                                       /*max_retries=*/5);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kDraining);
    EXPECT_EQ(res.retries, 0);  // terminal: no pointless resubmits

    EXPECT_EQ(engine.drain(/*timeout_us=*/2'000'000), 0);
    EXPECT_TRUE(server.drain(/*timeout_us=*/2'000'000));
    server.stop();
    engine.stop();
}

// After begin_drain() the listen socket is gone: new connections are
// refused while established ones keep getting (NACK) service.
TEST_F(NetServerTest, DrainStopsAccepting) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();
    const std::uint16_t port = server.port();

    Client before;
    before.connect("127.0.0.1", port);
    // One served request guarantees the acceptor adopted this connection
    // before the listen socket goes away (a connect alone can still sit
    // un-accepted in the kernel backlog, where begin_drain drops it).
    ASSERT_TRUE(before.call_once(tagged_input(0.5f), 0).ok);
    server.begin_drain();
    // The acceptor notices the drain flag on its next wake; give it a beat.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_THROW(
        {
            Client after;
            after.connect("127.0.0.1", port);
            // Connect may succeed spuriously only if the kernel had the
            // socket in the backlog before close; a call must then fail.
            (void)after.call_once(tagged_input(1.0f), 0);
        },
        Error);
    const CallResult res = before.call_once(tagged_input(1.0f), 0);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.reason, NackReason::kDraining);
    server.stop();
    engine.stop();
}

// net.read=short:3 clamps server reads to 3 bytes, forcing the decoder
// through every reassembly boundary; the request must still be answered
// correctly.
TEST_F(NetServerTest, ShortReadFaultExercisesReassembly) {
    infer::ServingEngine engine(identity_model(), fast_config());
    ServerConfig cfg;
    cfg.event_loops = 1;
    Server server(engine, cfg);
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    fault::arm("net.read=short:3");
    const CallResult res = client.call_once(tagged_input(6.0f), 0);
    fault::disarm();
    ASSERT_TRUE(res.ok);
    EXPECT_NEAR(res.output[0], 6.0f, 1e-6f);
    server.stop();
    engine.stop();
}

// net.read=reset drops the connection as a peer RST would: the client
// sees EOF, the server counts the close and keeps serving others.
TEST_F(NetServerTest, InjectedResetDropsConnectionServerSurvives) {
    infer::ServingEngine engine(identity_model(), fast_config());
    ServerConfig cfg;
    cfg.event_loops = 1;
    Server server(engine, cfg);
    server.start();

    Client victim;
    victim.connect("127.0.0.1", server.port());
    fault::arm("net.read=reset#1");
    (void)victim.send(tagged_input(1.0f), 0);
    EXPECT_THROW((void)victim.recv_frame(), Error);
    fault::disarm();

    Client survivor;
    survivor.connect("127.0.0.1", server.port());
    EXPECT_TRUE(survivor.call_once(tagged_input(2.0f), 0).ok);
    server.stop();
    engine.stop();
    EXPECT_GE(server.stats().closed, 1);
}

// Stopping the server with clients attached must not hang or crash, and
// attached clients observe EOF.
TEST_F(NetServerTest, StopWithLiveConnections) {
    infer::ServingEngine engine(identity_model(), fast_config());
    Server server(engine, ServerConfig{});
    server.start();

    Client client;
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.call_once(tagged_input(1.0f), 0).ok);
    server.stop();
    server.stop();  // idempotent
    EXPECT_THROW((void)client.recv_frame(), Error);
    engine.stop();
}

TEST(NetBackoff, HonorsHintsAndCap) {
    Backoff b(/*base_us=*/100, /*cap_us=*/10'000);
    EXPECT_EQ(b.next_us(0), 100);     // base << 0
    EXPECT_EQ(b.next_us(0), 200);     // base << 1
    EXPECT_EQ(b.next_us(5'000), 5'000);  // hint dominates the schedule
    EXPECT_EQ(b.next_us(0), 800);     // schedule resumes where it was
    for (int i = 0; i < 20; ++i) EXPECT_LE(b.next_us(0), 10'000);
    EXPECT_EQ(b.next_us(999'999), 10'000);  // cap beats even the hint
    b.reset();
    EXPECT_EQ(b.next_us(0), 100);
}

} // namespace
} // namespace hs::net
