// Serving failure semantics, driven through hs::fault: deadline shedding
// under a slow worker, watchdog restart with exactly-once future
// fulfillment, stop()-while-queue-full, and admission control under
// overload. Each test arms a fault spec, drives real traffic, and asserts
// the typed failure surface (DeadlineExceeded, Admission verdicts, stats).

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "util/error.h"

namespace hs::infer {
namespace {

constexpr int kChannels = 4;

std::shared_ptr<const FrozenModel> identity_model() {
    nn::Sequential net;
    net.emplace<nn::GlobalAvgPool>();
    return std::make_shared<const FrozenModel>(freeze(net, {kChannels, 2, 2}));
}

Tensor tagged_image(float id) { return Tensor::full({kChannels, 2, 2}, id); }

class ServingFaultTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm(); }
};

// Acceptance (c): under an injected slow worker, requests whose deadline
// expires in the queue are shed with DeadlineExceeded, every accepted
// future resolves exactly once, and the completed (non-shed) requests
// stay within their deadline.
TEST_F(ServingFaultTest, DeadlineSheddingUnderSlowWorker) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = 64;
    ServingEngine serving(identity_model(), cfg);

    // Every batch stalls 400 ms in the worker.
    fault::arm("serving.worker=delay:400000");

    // Generous-deadline requests: they ride out the stall.
    constexpr int kGenerous = 4;
    constexpr std::int64_t kGenerousDeadlineUs = 5'000'000;
    std::vector<std::future<Tensor>> generous;
    for (int i = 0; i < kGenerous; ++i) {
        auto r = serving.submit(tagged_image(static_cast<float>(i + 1)),
                                SubmitOptions{kGenerousDeadlineUs});
        ASSERT_TRUE(r.accepted());
        generous.push_back(std::move(*r.future));
    }
    // Give the worker time to take the first batch and start stalling,
    // then submit tight-deadline requests that will expire mid-stall.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    constexpr int kTight = 6;
    std::vector<std::future<Tensor>> tight;
    for (int i = 0; i < kTight; ++i) {
        auto r = serving.submit(tagged_image(100.0f + static_cast<float>(i)),
                                SubmitOptions{/*deadline_us=*/150'000});
        ASSERT_TRUE(r.accepted()) << "tight submit " << i;
        tight.push_back(std::move(*r.future));
    }

    // Every generous future resolves exactly once with its own payload.
    for (int i = 0; i < kGenerous; ++i)
        EXPECT_NEAR(generous[static_cast<std::size_t>(i)].get()[0],
                    static_cast<float>(i + 1), 1e-6f);
    // Every tight future fails exactly once with the typed shed error.
    for (int i = 0; i < kTight; ++i)
        EXPECT_THROW((void)tight[static_cast<std::size_t>(i)].get(),
                     DeadlineExceeded);

    serving.stop();
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, kGenerous);
    EXPECT_EQ(stats.shed, kTight);
    EXPECT_EQ(stats.deadline_missed, 0);
    // Non-shed requests stayed within their (generous) deadline.
    EXPECT_LE(stats.p99_ms,
              static_cast<double>(kGenerousDeadlineUs) / 1000.0);
}

// Watchdog: a worker stuck on one batch is retired and replaced; the
// replacement serves the queue, the stuck worker still delivers its
// in-flight batch when it wakes, and no future resolves twice (a double
// set_value would throw inside the worker and poison the run).
TEST_F(ServingFaultTest, ExactlyOnceAcrossWorkerRestart) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 64;
    cfg.watchdog_timeout_us = 50'000;
    ServingEngine serving(identity_model(), cfg);

    // Only the first batch stalls (400 ms >> watchdog 50 ms).
    fault::arm("serving.worker=delay:400000#1");

    constexpr int kRequests = 10;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
        auto r = serving.submit(tagged_image(static_cast<float>(i + 1)),
                                SubmitOptions{});
        ASSERT_TRUE(r.accepted()) << "submit " << i;
        futures.push_back(std::move(*r.future));
        if (i == 1) // let the stalled batch get picked up first
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    for (int i = 0; i < kRequests; ++i) {
        const Tensor out = futures[static_cast<std::size_t>(i)].get();
        EXPECT_NEAR(out[0], static_cast<float>(i + 1), 1e-6f)
            << "request " << i << " got someone else's response";
    }
    serving.stop();
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GE(stats.worker_restarts, 1);
}

// stop() while the queue is full drains every accepted request, and a
// second stop() is a no-op rather than a hang.
TEST_F(ServingFaultTest, StopWhileQueueFullAndIdempotent) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 2;
    ServingEngine serving(identity_model(), cfg);

    fault::arm("serving.worker=delay:200000"); // every batch stalls 200 ms

    std::vector<std::future<Tensor>> futures;
    int accepted = 0;
    std::int64_t rejected = 0;
    // Overfill: 2 enter the worker, 2 fill the queue, the rest bounce.
    for (int i = 0; i < 8; ++i) {
        auto r = serving.submit(tagged_image(static_cast<float>(i + 1)),
                                SubmitOptions{});
        if (r.accepted()) {
            futures.push_back(std::move(*r.future));
            ++accepted;
        } else {
            EXPECT_EQ(r.admission, Admission::kQueueFull);
            ++rejected;
        }
        if (i == 1) // let the worker pull the first batch out of the queue
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(rejected, 1);

    serving.stop(); // drains all accepted requests through the slow worker
    for (auto& fut : futures) EXPECT_NO_THROW((void)fut.get());
    serving.stop(); // idempotent: immediate no-op
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, accepted);
    EXPECT_EQ(stats.rejected, rejected);
}

// Injected arena-allocation failure: building an Engine directly throws a
// typed error, and a serving pool with one poisoned worker degrades to
// the surviving worker instead of crashing or hanging.
TEST_F(ServingFaultTest, EngineAllocFailureDegradesGracefully) {
    auto model = identity_model();
    fault::arm("engine.alloc=fail#1");
    EXPECT_THROW(Engine(model, 1), Error);
    fault::disarm();

    // One of the two workers loses its engine at bring-up (#1 fires for
    // whichever thread gets there first); the other serves every request.
    // Stays armed through the traffic — the count gate makes it one-shot.
    fault::arm("engine.alloc=fail#1");
    ServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 2;
    ServingEngine serving(model, cfg);

    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 6; ++i) {
        auto r = serving.submit(tagged_image(static_cast<float>(i + 1)),
                                SubmitOptions{});
        ASSERT_TRUE(r.accepted());
        futures.push_back(std::move(*r.future));
    }
    for (int i = 0; i < 6; ++i)
        EXPECT_NEAR(futures[static_cast<std::size_t>(i)].get()[0],
                    static_cast<float>(i + 1), 1e-6f);
    serving.stop();
    EXPECT_EQ(serving.stats().completed, 6);
}

// drain() under a stalled worker: at the timeout's expiry, requests still
// queued fail with the typed RequestDrained (kDrained on the callback
// path), are counted in stats().drained, and the in-flight batch still
// resolves with its value when the worker wakes.
TEST_F(ServingFaultTest, DrainExpiryFailsQueuedRemainder) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 1;
    cfg.queue_capacity = 64;
    ServingEngine serving(identity_model(), cfg);

    fault::arm("serving.worker=delay:400000");  // every batch stalls 400 ms

    // The worker takes this one and stalls on it…
    auto busy = serving.submit(tagged_image(1.0f), SubmitOptions{});
    ASSERT_TRUE(busy.accepted());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // …these wait in the queue and cannot start within the drain window.
    auto queued_future = serving.submit(tagged_image(2.0f), SubmitOptions{});
    ASSERT_TRUE(queued_future.accepted());
    std::promise<AsyncOutcome> cb;
    auto cb_result = cb.get_future();
    auto queued_cb = serving.submit(
        tagged_image(3.0f), SubmitOptions{},
        [&cb](AsyncOutcome&& out) { cb.set_value(std::move(out)); });
    ASSERT_TRUE(queued_cb.accepted());

    // 50 ms drain << 400 ms stall: the two queued requests get NACKed.
    EXPECT_EQ(serving.drain(/*timeout_us=*/50'000), 2);
    EXPECT_THROW((void)queued_future.future->get(), RequestDrained);
    AsyncOutcome out = cb_result.get();
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.reason, FailReason::kDrained);

    // The in-flight batch was never abandoned: its value still arrives.
    EXPECT_NEAR(busy.future->get()[0], 1.0f, 1e-6f);
    serving.stop();
    const ServingStats stats = serving.stats();
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.drained, 2);
}

// Forced admission verdicts via the serving.submit fault site.
TEST_F(ServingFaultTest, ForcedAdmissionVerdicts) {
    ServingEngine serving(identity_model(), ServingConfig{});
    fault::arm("serving.submit=overload:12345#1");
    auto r = serving.submit(tagged_image(1.0f), SubmitOptions{});
    EXPECT_EQ(r.admission, Admission::kOverloaded);
    EXPECT_FALSE(r.future.has_value());
    EXPECT_EQ(r.retry_after_us, 12345);

    fault::arm("serving.submit=full:777#1");
    r = serving.submit(tagged_image(1.0f), SubmitOptions{});
    EXPECT_EQ(r.admission, Admission::kQueueFull);
    EXPECT_EQ(r.retry_after_us, 777);
    fault::disarm();

    // Faults gone: traffic flows again.
    r = serving.submit(tagged_image(3.0f), SubmitOptions{});
    ASSERT_TRUE(r.accepted());
    EXPECT_NEAR(r.future->get()[0], 3.0f, 1e-6f);
    serving.stop();
    EXPECT_EQ(serving.stats().rejected, 2);
}

// Genuine estimation-based admission control: once the service-time EWMA
// has seen a slow batch, a request whose deadline is far below the
// estimated queue wait is rejected up front with a retry-after hint.
TEST_F(ServingFaultTest, OverloadAdmissionUsesServiceEstimate) {
    ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.queue_capacity = 64;
    ServingEngine serving(identity_model(), cfg);

    fault::arm("serving.worker=delay:100000"); // every batch takes ~100 ms

    // Prime the EWMA with one completed slow request.
    auto first = serving.submit(tagged_image(1.0f), SubmitOptions{});
    ASSERT_TRUE(first.accepted());
    (void)first.future->get();

    // Occupy the worker, then leave one request waiting in the queue.
    auto busy = serving.submit(tagged_image(2.0f), SubmitOptions{});
    ASSERT_TRUE(busy.accepted());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto queued = serving.submit(tagged_image(3.0f), SubmitOptions{});
    ASSERT_TRUE(queued.accepted());

    // A 5 ms deadline cannot survive a ~100 ms estimated wait: reject
    // at submit (reject-newest) instead of shedding later.
    auto doomed =
        serving.submit(tagged_image(4.0f), SubmitOptions{/*deadline_us=*/5000});
    EXPECT_EQ(doomed.admission, Admission::kOverloaded);
    EXPECT_GT(doomed.retry_after_us, 0);

    (void)busy.future->get();
    (void)queued.future->get();
    serving.stop();
}

} // namespace
} // namespace hs::infer
