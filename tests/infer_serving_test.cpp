// Serving-runtime semantics: work-conserving dispatch (an idle worker
// takes a lone request at once; batches grow only under backlog, capped
// at max_batch), bounded-queue backpressure, exactly-once delivery under
// multi-threaded load, and lifecycle/validation edges.

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "models/vgg.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "util/error.h"

namespace hs::infer {
namespace {

constexpr int kChannels = 4;

// A model whose output equals its (constant-filled) input: global average
// pooling over a constant plane is the identity per channel. Lets every
// test tag a request with an id and verify which response it got.
std::shared_ptr<const FrozenModel> identity_model() {
    nn::Sequential net;
    net.emplace<nn::GlobalAvgPool>();
    return std::make_shared<const FrozenModel>(freeze(net, {kChannels, 2, 2}));
}

Tensor tagged_image(float id) { return Tensor::full({kChannels, 2, 2}, id); }

class Serving : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm(); }
};

// Backlog builder: stall the single worker on a one-request "plug" batch
// (only the first batch sleeps) and return once the worker has lifted it,
// so every request submitted within the next `kPlugStallUs` queues behind
// it deterministically.
constexpr std::int64_t kPlugStallUs = 150'000;

std::future<Tensor> plug_worker(ServingEngine& serving) {
    fault::arm("serving.worker=delay:" + std::to_string(kPlugStallUs) + "#1");
    auto plug = serving.submit(tagged_image(-1.0f), {}).future;
    if (!plug.has_value()) {
        ADD_FAILURE() << "plug request rejected";
        return {};
    }
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(5);
    for (;;) {
        const ServingStats s = serving.stats();
        if (!s.models.empty() && s.models[0].queued == 0) break;
        if (std::chrono::steady_clock::now() > give_up) {
            ADD_FAILURE() << "worker never lifted the plug request";
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return std::move(*plug);
}

// An idle worker runs a lone request right away: no partial batch is held
// open waiting for company, whatever max_delay_us says.
TEST_F(Serving, IdleWorkerDispatchesImmediately) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 64; // never reached
    cfg.max_delay_us = 10'000'000; // no effect: dispatch never waits
    ServingEngine serving(identity_model(), cfg);

    auto fut = serving.submit(tagged_image(5.0f), {}).future;
    ASSERT_TRUE(fut.has_value());
    ASSERT_EQ(fut->wait_for(std::chrono::seconds(1)),
              std::future_status::ready);
    EXPECT_NEAR(fut->get()[0], 5.0f, 1e-6f);
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.batches, 1);
}

// Requests that arrive while the worker is busy leave together: a backlog
// of exactly max_batch is lifted as one full batch.
TEST_F(Serving, MaxBatchFlush) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    ServingEngine serving(identity_model(), cfg);

    auto plug = plug_worker(serving);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 4; ++i) {
        auto fut =
            serving.submit(tagged_image(static_cast<float>(i + 1)), {}).future;
        ASSERT_TRUE(fut.has_value());
        futures.push_back(std::move(*fut));
    }
    EXPECT_NEAR(plug.get()[0], -1.0f, 1e-6f);
    for (int i = 0; i < 4; ++i) {
        const Tensor out = futures[static_cast<std::size_t>(i)].get();
        EXPECT_NEAR(out[0], static_cast<float>(i + 1), 1e-6f);
    }
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, 5);
    // The plug ran alone; the four queued behind it went as one batch.
    EXPECT_EQ(stats.batches, 2);
    EXPECT_DOUBLE_EQ(stats.mean_batch, 2.5);
}

// A backlog longer than max_batch drains in max_batch-sized chunks, and
// the partial tail leaves at once instead of waiting to fill.
TEST_F(Serving, BatchGrowsUnderBacklog) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_delay_us = 10'000'000; // no effect: the tail never waits
    cfg.queue_capacity = 64;
    ServingEngine serving(identity_model(), cfg);

    constexpr int kQueued = 10;
    auto plug = plug_worker(serving);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kQueued; ++i) {
        auto fut =
            serving.submit(tagged_image(static_cast<float>(i)), {}).future;
        ASSERT_TRUE(fut.has_value());
        futures.push_back(std::move(*fut));
    }
    (void)plug.get();
    for (int i = 0; i < kQueued; ++i) {
        ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                      std::chrono::seconds(1)),
                  std::future_status::ready)
            << "request " << i;
        EXPECT_NEAR(futures[static_cast<std::size_t>(i)].get()[0],
                    static_cast<float>(i), 1e-6f);
    }
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, kQueued + 1);
    // Plug alone, then 4 + 4 + 2: the fewest batches max_batch allows.
    EXPECT_EQ(stats.batches, 1 + (kQueued + cfg.max_batch - 1) / cfg.max_batch);
}

TEST_F(Serving, QueueBackpressure) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.queue_capacity = 2;
    ServingEngine serving(identity_model(), cfg);

    auto plug = plug_worker(serving);
    auto a = serving.submit(tagged_image(1.0f), {}).future;
    auto b = serving.submit(tagged_image(2.0f), {}).future;
    ASSERT_TRUE(a.has_value() && b.has_value());
    // Third submit exceeds capacity while the worker is still busy.
    const auto c = serving.submit(tagged_image(3.0f), {});
    EXPECT_EQ(c.admission, Admission::kQueueFull);
    EXPECT_FALSE(c.future.has_value());

    serving.stop(); // drains the accepted requests
    EXPECT_NEAR(plug.get()[0], -1.0f, 1e-6f);
    EXPECT_NEAR(a->get()[0], 1.0f, 1e-6f);
    EXPECT_NEAR(b->get()[0], 2.0f, 1e-6f);
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, 3);
    EXPECT_EQ(stats.rejected, 1);
}

TEST_F(Serving, ExactlyOnceUnderLoad) {
    ServingConfig cfg;
    cfg.workers = 4;
    cfg.max_batch = 3;
    cfg.queue_capacity = 1024;
    ServingEngine serving(identity_model(), cfg);

    constexpr int kRequests = 64;
    std::vector<std::future<Tensor>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        auto fut =
            serving.submit(tagged_image(static_cast<float>(i)), {}).future;
        ASSERT_TRUE(fut.has_value()) << "unexpected rejection at " << i;
        futures.push_back(std::move(*fut));
    }
    // Each future resolves exactly once with its own request's payload —
    // a lost request would hang, a double delivery would throw.
    for (int i = 0; i < kRequests; ++i) {
        const Tensor out = futures[static_cast<std::size_t>(i)].get();
        for (int c = 0; c < kChannels; ++c)
            ASSERT_NEAR(out[c], static_cast<float>(i), 1e-6f)
                << "request " << i << " got someone else's response";
    }
    serving.stop();
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GE(stats.batches, (kRequests + cfg.max_batch - 1) / cfg.max_batch);
    EXPECT_GT(stats.throughput_rps, 0.0);
}

TEST_F(Serving, StopDrainsAcceptedRequests) {
    ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 16;
    ServingEngine serving(identity_model(), cfg);

    auto fut = serving.submit(tagged_image(9.0f), {}).future;
    ASSERT_TRUE(fut.has_value());
    serving.stop();
    // Accepted before stop() => still answered.
    EXPECT_NEAR(fut->get()[0], 9.0f, 1e-6f);
    // After stop() new submissions are rejected.
    EXPECT_FALSE(serving.submit(tagged_image(1.0f), {}).future.has_value());
}

TEST_F(Serving, StatsSafeWithZeroCompletedRequests) {
    // Percentiles over an empty latency set must be well-defined zeros,
    // not a divide-by-zero or an out-of-range index.
    ServingEngine serving(identity_model(), ServingConfig{});
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, 0);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.deadline_missed, 0);
    EXPECT_EQ(stats.worker_restarts, 0);
    EXPECT_EQ(stats.batches, 0);
    EXPECT_DOUBLE_EQ(stats.mean_batch, 0.0);
    EXPECT_DOUBLE_EQ(stats.p50_ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.p95_ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.p99_ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.throughput_rps, 0.0);
}

TEST_F(Serving, StopIsIdempotent) {
    ServingEngine serving(identity_model(), ServingConfig{});
    serving.stop();
    serving.stop(); // second call must be an immediate no-op, not a hang
    EXPECT_FALSE(serving.submit(tagged_image(1.0f), {}).future.has_value());
    // stats() after stop() on an idle engine is still safe.
    EXPECT_EQ(serving.stats().completed, 0);
    serving.stop();
}

// Callback submit flavor (the TCP front-end's path): the completion fires
// exactly once per accepted request with that request's own output, and
// the SubmitResult never carries a future.
TEST_F(Serving, CallbackSubmitDeliversExactlyOnce) {
    ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 3;
    cfg.queue_capacity = 256;
    ServingEngine serving(identity_model(), cfg);

    constexpr int kRequests = 24;
    std::mutex mu;
    std::vector<int> deliveries(kRequests, 0);
    std::condition_variable cv;
    int resolved = 0;
    for (int i = 0; i < kRequests; ++i) {
        auto r = serving.submit(
            tagged_image(static_cast<float>(i)), SubmitOptions{},
            [&, i](AsyncOutcome&& out) {
                std::lock_guard<std::mutex> lock(mu);
                ++deliveries[static_cast<std::size_t>(i)];
                EXPECT_TRUE(out.ok);
                EXPECT_NEAR(out.output[0], static_cast<float>(i), 1e-6f)
                    << "request " << i << " got someone else's response";
                ++resolved;
                cv.notify_all();
            });
        ASSERT_TRUE(r.accepted());
        EXPECT_FALSE(r.future.has_value()) << "callback flavor has no future";
    }
    {
        std::unique_lock<std::mutex> lock(mu);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return resolved == kRequests; }));
        for (int i = 0; i < kRequests; ++i)
            EXPECT_EQ(deliveries[static_cast<std::size_t>(i)], 1);
    }
    serving.stop();
    EXPECT_EQ(serving.stats().completed, kRequests);
}

// drain(): stops admitting, resolves accepted work, and reports zero
// requests failed when everything fit in the timeout.
TEST_F(Serving, DrainResolvesAcceptedWorkThenRejects) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    ServingEngine serving(identity_model(), cfg);

    auto fut = serving.submit(tagged_image(8.0f), {}).future;
    ASSERT_TRUE(fut.has_value());
    EXPECT_EQ(serving.drain(/*timeout_us=*/5'000'000), 0);
    EXPECT_NEAR(fut->get()[0], 8.0f, 1e-6f);
    // Post-drain the engine admits nothing.
    const auto r = serving.submit(tagged_image(1.0f), SubmitOptions{});
    EXPECT_EQ(r.admission, Admission::kStopped);
    EXPECT_EQ(serving.drain(0), 0);  // idempotent on an empty engine
    serving.stop();
    EXPECT_EQ(serving.stats().drained, 0);
}

TEST_F(Serving, RejectsWrongShape) {
    ServingEngine serving(identity_model(), ServingConfig{});
    EXPECT_THROW((void)serving.submit(Tensor({kChannels + 1, 2, 2}), {}),
                 Error);
    EXPECT_THROW((void)serving.submit(Tensor({kChannels, 2}), {}), Error);
    // [1, C, H, W] is accepted as a single image.
    auto fut =
        serving.submit(Tensor::full({1, kChannels, 2, 2}, 3.0f), {}).future;
    ASSERT_TRUE(fut.has_value());
    EXPECT_NEAR(fut->get()[0], 3.0f, 1e-6f);
}

} // namespace
} // namespace hs::infer
