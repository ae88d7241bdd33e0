#pragma once

// Batch-serving runtime over the frozen engine. A ServingEngine owns a
// pool of worker threads, each with its own Engines (private arenas), fed
// from per-model bounded request queues. Dispatch is work-conserving: a
// free worker lifts whatever the picked model's queue holds, up to
// `max_batch`, the moment it is free — it never holds a partial batch
// open waiting for more. A lone request therefore runs at batch 1 with
// no queueing delay, and batches grow only under backlog, from requests
// that arrived while every worker was busy (adaptive batching: the GEMM
// is amortized exactly when the load needs it).
//
// Fleet serving: the engine hosts every model in its ModelRegistry (a
// single-model convenience constructor wraps one FrozenModel into a
// private registry as "default"). Each model gets its own bounded queue
// (queue_capacity applies per model, so one hot variant cannot starve
// another's admission) and its own HDR latency histogram; the shared
// workers pick the next batch across non-empty queues by smooth weighted
// round-robin on the registry weights. SubmitOptions::model routes a
// request ("" = the default model); an unregistered name is rejected with
// Admission::kUnknownModel.
//
// Hot reload: reload(name, path) forwards to the registry's validation
// gauntlet (registry.h). Workers resolve the current model snapshot when
// they lift a batch — the gauntlet guarantees identical geometry, so a
// batch admitted against the old version can execute on the new one —
// and cache one Engine per model id, rebuilding only when the snapshot
// pointer changed. The outgoing model drains via shared_ptr refcount: the
// last worker to rebuild drops the last reference, freeing the arenas,
// with zero dropped requests across the swap.
//
// Overload behavior is explicit rather than emergent:
//   * submit() never blocks: a full queue rejects with kQueueFull, and
//     when the caller carries a deadline that the estimated queue delay
//     (EWMA of recent per-request service time) already exceeds, the
//     request is rejected up front with kOverloaded plus a retry-after
//     hint — reject-newest admission control.
//   * An accepted request whose deadline expires while still queued is
//     shed: it is dropped without executing and its future fails with
//     DeadlineExceeded. A request that executes but finishes late still
//     gets its value (the compute is already spent) and is counted in
//     `deadline_missed`.
//   * A watchdog thread (watchdog_timeout_us > 0) retires any worker that
//     stays busy on a single batch past the timeout and spawns a fresh
//     worker with its own Engine; the retired worker's in-flight batch is
//     still delivered if it ever finishes, so futures resolve exactly
//     once across a restart.
//
// Every accepted request is fulfilled exactly once — through its future
// or its completion callback, with a value or a typed failure
// (DeadlineExceeded / RequestDrained). stop() drains accepted requests
// and is idempotent; drain(timeout_us) is the graceful-shutdown phase the
// TCP front-end runs on SIGTERM: stop admitting, wait for the queue and
// in-flight batches, and NACK whatever remains at expiry.
//
// Per-request latency (submit -> result ready) feeds a bounded sharded
// HDR histogram (obs::HdrHistogram) that backs the Stats percentiles —
// O(buckets) to read, O(1) memory under sustained load, ≤ ~3% relative
// error — plus the registry HDR series serve.latency_us /
// serve.queue_wait_us / serve.batch_compute_us when observability is
// enabled; counters serve.requests / serve.rejected / serve.batches /
// serve.shed / serve.deadline_missed / serve.worker_restarts track
// volume. Incidents auto-dump the obs flight recorder: a watchdog worker
// respawn always, and shedding / deadline-miss spikes (8+ events inside
// one second) rate-limited.
// Fault sites (hs::fault): "serving.worker" (delay:<us> — stall a worker
// mid-batch) and "serving.submit" (full / overload — force an admission
// verdict), used by the failure-semantics test suite.
//
// With observability enabled, every request also leaves spans on the
// Perfetto timeline: "serve.submit" (admission), "serve.queue_wait"
// (enqueue → lifted into a batch, closed across threads via
// obs::record_span), "serve.batch_assemble" and "serve.batch_compute" —
// so a request's latency visibly splits into queue wait vs compute.
//
// A ServingEngine hosts fp32 and int8 FrozenModels alike: each worker's
// Engine dispatches per op on the model's Precision (see quantize.h).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "infer/engine.h"
#include "infer/freeze.h"
#include "infer/registry.h"
#include "obs/hdr_histogram.h"
#include "tensor/tensor.h"
#include "util/error.h"

namespace hs::infer {

/// Thrown into a request's future when its deadline expires while the
/// request is still queued (the request is shed, never executed).
class DeadlineExceeded : public Error {
public:
    explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Thrown into a request's future when the engine is drained (shutdown)
/// before the request ever executed. Derives from DeadlineExceeded so
/// existing "request was shed" handlers keep working; the type
/// distinguishes "you were too late" from "we were shutting down".
class RequestDrained : public DeadlineExceeded {
public:
    explicit RequestDrained(const std::string& what)
        : DeadlineExceeded(what) {}
};

/// Why a callback-style request failed without executing.
enum class FailReason {
    kDeadline,  ///< deadline expired while queued (shed)
    kDrained,   ///< engine drained/stopped before the request ran
};

/// Terminal state of a callback submit: exactly one delivery per accepted
/// request, either a value (`ok`) or a typed failure.
struct AsyncOutcome {
    bool ok = false;
    Tensor output;  ///< valid iff ok
    FailReason reason = FailReason::kDeadline;  ///< valid iff !ok
    std::string error;                          ///< detail iff !ok
};

/// Completion hook of the callback submit flavor. May be invoked on a
/// worker thread, on the thread calling drain()/stop(), and — for shed
/// requests — while the engine's internal lock is held: the callback must
/// be fast, must never block, and must never call back into the
/// ServingEngine (post to your own queue instead; the TCP front-end's
/// event-loop mailbox is the intended consumer).
using Completion = std::function<void(AsyncOutcome&&)>;

struct ServingConfig {
    int workers = 2;           ///< worker threads (one Engine each)
    int max_batch = 8;         ///< most requests one worker lifts at once
    /// No effect: dispatch is work-conserving, so no batch is held open
    /// waiting for more requests. Kept so existing configs still compile.
    std::int64_t max_delay_us = 0;
    int queue_capacity = 64;   ///< submit() rejects beyond this depth
    /// Deadline for submits that don't carry their own; 0 = no deadline.
    std::int64_t default_deadline_us = 0;
    /// A worker busy on one batch longer than this is retired and replaced
    /// (fresh thread + fresh Engine). 0 disables the watchdog.
    std::int64_t watchdog_timeout_us = 0;
};

/// Per-submit knobs.
struct SubmitOptions {
    /// Deadline in microseconds from submit; 0 = none, negative = use
    /// ServingConfig::default_deadline_us.
    std::int64_t deadline_us = -1;
    /// Registry name of the model to run; "" = the default model (id 0).
    std::string model;
};

/// Admission verdict of one submit.
enum class Admission {
    kAccepted,
    kQueueFull,
    kOverloaded,
    kStopped,
    kUnknownModel,  ///< SubmitOptions::model not in the registry
};

struct SubmitResult {
    Admission admission = Admission::kStopped;
    /// Set iff accepted; resolves with the output tensor or throws
    /// DeadlineExceeded if the request was shed.
    std::optional<std::future<Tensor>> future;
    /// For kQueueFull/kOverloaded: suggested wait before retrying, from
    /// the estimated queue drain rate (best-effort hint, may be 0 early).
    std::int64_t retry_after_us = 0;

    [[nodiscard]] bool accepted() const {
        return admission == Admission::kAccepted;
    }
};

/// Aggregate serving statistics; percentiles are computed over all
/// completed request latencies since start, read from a bounded HDR
/// histogram (no per-request samples are retained; quantiles carry
/// ≤ ~3% relative error). All fields are zero (not garbage, not NaN)
/// when no request has completed yet.
/// Per-model slice of the aggregate stats (fleet dashboards key on the
/// name; `version` is the registry version the gauge tracks).
struct ModelStats {
    std::string name;
    std::uint8_t id = 0;
    std::int64_t version = 0;
    std::int64_t queued = 0;     ///< requests waiting right now
    std::int64_t completed = 0;
    std::int64_t rejected = 0;   ///< queue-full rejections on this model
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

struct ServingStats {
    std::int64_t completed = 0;
    std::int64_t rejected = 0;         ///< queue-full + overload rejections
    std::int64_t shed = 0;             ///< expired in queue, DeadlineExceeded
    std::int64_t drained = 0;          ///< failed at drain()/stop() expiry
    std::int64_t deadline_missed = 0;  ///< completed but after the deadline
    std::int64_t worker_restarts = 0;  ///< watchdog respawns
    std::int64_t batches = 0;
    double mean_batch = 0.0;      ///< mean micro-batch size
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double throughput_rps = 0.0;  ///< completed / wall span of completions
    std::vector<ModelStats> models;  ///< per-model rows, registry id order
};

class ServingEngine {
public:
    /// Single-model convenience: wraps `model` into a private registry as
    /// "default" (id 0).
    ServingEngine(std::shared_ptr<const FrozenModel> model, ServingConfig cfg);
    /// Fleet serving: host every model in `registry` (which must hold at
    /// least one entry; the first — id 0 — is the default model). The
    /// registry may gain models and reloads while serving.
    ServingEngine(std::shared_ptr<ModelRegistry> registry, ServingConfig cfg);
    ~ServingEngine();

    ServingEngine(const ServingEngine&) = delete;
    ServingEngine& operator=(const ServingEngine&) = delete;

    /// Submit one image [C, H, W] (or [1, C, H, W]) with per-request
    /// options. Never blocks; the admission verdict says why a request was
    /// not accepted. `done` is invoked exactly once with the output tensor
    /// or a typed failure, and is only retained when the verdict is
    /// kAccepted (the returned `future` member stays empty). See
    /// Completion for the (strict) callback contract. Throws hs::Error on
    /// a shape mismatch or an empty `done`.
    [[nodiscard]] SubmitResult submit(Tensor image, const SubmitOptions& opts,
                                      Completion done);

    /// Future flavor: a thin adapter over the callback submit. An
    /// accepted request's future resolves with the output tensor, or
    /// throws DeadlineExceeded (shed) / RequestDrained (drain, stop).
    [[nodiscard]] SubmitResult submit(Tensor image, const SubmitOptions& opts);

    /// Graceful shutdown, phase 1: stop admitting (submits return
    /// kStopped) and wait until every accepted request has finished —
    /// both the queued ones and the batches already on a worker. A
    /// negative timeout waits forever; at a non-negative timeout's expiry
    /// whatever still sits in the queue is failed with RequestDrained /
    /// FailReason::kDrained (counted in stats().drained). Returns the
    /// number of requests failed this way. Idempotent; stop() still has
    /// to run afterwards to join the threads.
    std::int64_t drain(std::int64_t timeout_us);

    /// Stop accepting requests, drain the queue, join the workers. Every
    /// request accepted before stop() still gets fulfilled: workers run
    /// the queue dry before exiting, and any request that no live worker
    /// could take (e.g. every worker retired) is failed with
    /// RequestDrained after the join rather than leaving a broken
    /// promise. Idempotent: later calls are no-ops.
    void stop();

    [[nodiscard]] ServingStats stats() const;
    [[nodiscard]] const ServingConfig& config() const { return cfg_; }
    /// Current snapshot of the default model (registry id 0) — front-ends
    /// validate request shape/precision against it before building a
    /// tensor. Re-fetch after a reload; the snapshot does not follow
    /// swaps.
    [[nodiscard]] std::shared_ptr<const FrozenModel> model() const;
    /// The registry behind this engine (shared with front-ends for
    /// per-request model resolution and with deploy tooling for reloads).
    [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry() const {
        return registry_;
    }
    /// Deploy: run the registry's validation gauntlet on `path` and swap
    /// atomically on success (see registry.h). Safe while serving.
    ReloadResult reload(const std::string& name, const std::string& path,
                        const ReloadPolicy& policy = {}) {
        return registry_->reload(name, path, policy);
    }

private:
    struct Request {
        Tensor image;
        Completion done;
        std::int64_t enqueue_ns = 0;
        std::int64_t deadline_ns = 0;  ///< 0 = no deadline
    };

    /// One model's bounded queue + per-model telemetry. Heap-stable
    /// (unique_ptr) because HdrHistogram is neither copyable nor movable
    /// and workers keep raw pointers across unlock. Indexed by registry
    /// wire id in queues_; created lazily on first submit for that model.
    struct ModelQueue {
        std::string name;
        std::uint8_t id = 0;
        int weight = 1;
        double wrr_credit = 0.0;  ///< smooth weighted-round-robin state
        std::deque<Request> queue;
        std::int64_t completed = 0;
        std::int64_t rejected = 0;
        obs::HdrHistogram latency_us;
        std::string latency_metric;  ///< "serve.latency_us.<name>"
    };

    /// Deliver a value / typed failure to the request's completion,
    /// exactly once.
    static void fulfill_value(Request& req, Tensor&& out);
    static void fulfill_failure(Request& req, FailReason reason,
                                const std::string& msg);

    /// One worker thread plus the state the watchdog reads. Heap-stable
    /// (unique_ptr in workers_) so the thread can keep a pointer to it
    /// while the vector grows.
    struct Worker {
        std::thread thread;
        std::atomic<std::int64_t> heartbeat_ns{0};
        std::atomic<bool> busy{false};     ///< executing a batch right now
        std::atomic<bool> retired{false};  ///< watchdog replaced this worker
        int id = 0;
    };

    void worker_loop(Worker* self);
    void watchdog_loop();
    /// Queue slot for a registry model, created on first use. Caller
    /// holds mu_.
    [[nodiscard]] ModelQueue* queue_for_locked(const ModelInfo& info);
    /// Next queue to serve: smooth weighted round-robin over the
    /// non-empty queues (nginx-style — every pick earns each contender
    /// its weight in credit, the winner pays the total back), so a
    /// weight-3 model gets 3 of every 4 batches against a weight-1 peer
    /// without ever starving it. Caller holds mu_.
    [[nodiscard]] ModelQueue* pick_queue_locked();
    [[nodiscard]] std::size_t total_queued_locked() const;
    /// Drop expired requests from every queue front-to-back, failing
    /// their futures with DeadlineExceeded. Caller holds mu_.
    void shed_expired_locked(std::int64_t now_ns);
    /// Estimated time a request entering the queue now waits before
    /// executing, from the service-time EWMA. Caller holds mu_.
    [[nodiscard]] std::int64_t estimated_wait_us_locked() const;
    void spawn_worker_locked();
    /// Sliding 1s-window spike detector feeding the flight recorder: when
    /// `count` crosses the threshold inside one window, trigger a
    /// (rate-limited) incident dump tagged `reason`. Caller holds mu_.
    void note_spike_locked(std::int64_t now_ns, std::int64_t& window_start_ns,
                           std::int64_t& window_count, const char* reason);

    std::shared_ptr<ModelRegistry> registry_;
    ServingConfig cfg_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable watchdog_cv_;
    /// Signals drain(): every queue empty and no batch on any worker.
    std::condition_variable drain_cv_;
    /// Per-model queues indexed by registry wire id (nullptr until that
    /// model first sees traffic).
    std::vector<std::unique_ptr<ModelQueue>> queues_;
    bool stopping_ = false;
    bool stopped_ = false;  ///< stop() already completed (idempotence)
    std::int64_t in_flight_batches_ = 0;  ///< batches taken, not yet done

    std::int64_t completed_ = 0;
    std::int64_t rejected_ = 0;
    std::int64_t shed_ = 0;
    std::int64_t drained_ = 0;
    std::int64_t deadline_missed_ = 0;
    std::int64_t worker_restarts_ = 0;
    std::int64_t batches_ = 0;
    std::int64_t batched_requests_ = 0;
    double ewma_req_ms_ = 0.0;  ///< per-request service time estimate
    /// Completed-request latency in µs. Owned here (not a Registry
    /// reference) so stats() works with obs disabled and survives
    /// Registry::reset() in tests; recording is lock-free, reading merges
    /// the shards — O(buckets), independent of request count.
    obs::HdrHistogram latency_us_;
    std::int64_t first_complete_ns_ = 0;
    std::int64_t last_complete_ns_ = 0;
    // Incident spike windows (flight-recorder triggers), under mu_.
    std::int64_t shed_window_start_ns_ = 0;
    std::int64_t shed_window_count_ = 0;
    std::int64_t miss_window_start_ns_ = 0;
    std::int64_t miss_window_count_ = 0;

    std::vector<std::unique_ptr<Worker>> workers_;
    int next_worker_id_ = 0;
    std::thread watchdog_;
};

} // namespace hs::infer
