#include "infer/serving.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "fault/fault.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hs::infer {
namespace {

// Flight-recorder spike triggers: this many sheds / deadline misses
// inside one window means the service is visibly degrading — snapshot
// the last moments while they are still in the rings.
constexpr std::int64_t kSpikeWindowNs = 1'000'000'000;
constexpr std::int64_t kSpikeThreshold = 8;

} // namespace

namespace {

std::shared_ptr<ModelRegistry> wrap_single_model(
    std::shared_ptr<const FrozenModel> model) {
    require(model != nullptr, "ServingEngine needs a frozen model");
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("default", std::move(model));
    return registry;
}

} // namespace

ServingEngine::ServingEngine(std::shared_ptr<const FrozenModel> model,
                             ServingConfig cfg)
    : ServingEngine(wrap_single_model(std::move(model)), cfg) {}

ServingEngine::ServingEngine(std::shared_ptr<ModelRegistry> registry,
                             ServingConfig cfg)
    : registry_(std::move(registry)), cfg_(cfg) {
    require(registry_ != nullptr, "ServingEngine needs a model registry");
    require(registry_->size() >= 1,
            "ServingEngine needs a registry with at least one model");
    require(cfg_.workers >= 1, "ServingEngine needs at least one worker");
    require(cfg_.max_batch >= 1, "ServingEngine max_batch must be >= 1");
    require(cfg_.queue_capacity >= 1,
            "ServingEngine queue_capacity must be >= 1");
    require(cfg_.default_deadline_us >= 0,
            "ServingEngine default_deadline_us must be >= 0");
    require(cfg_.watchdog_timeout_us >= 0,
            "ServingEngine watchdog_timeout_us must be >= 0");
    {
        std::lock_guard<std::mutex> lock(mu_);
        workers_.reserve(static_cast<std::size_t>(cfg_.workers));
        for (int w = 0; w < cfg_.workers; ++w) spawn_worker_locked();
    }
    if (cfg_.watchdog_timeout_us > 0)
        watchdog_ = std::thread([this] { watchdog_loop(); });
}

ServingEngine::~ServingEngine() { stop(); }

std::shared_ptr<const FrozenModel> ServingEngine::model() const {
    const auto info = registry_->find_id(0);
    require(info.has_value(), "ServingEngine registry lost its default model");
    return info->model;
}

ServingEngine::ModelQueue* ServingEngine::queue_for_locked(
    const ModelInfo& info) {
    if (queues_.size() <= info.id)
        queues_.resize(static_cast<std::size_t>(info.id) + 1);
    auto& slot = queues_[info.id];
    if (!slot) {
        slot = std::make_unique<ModelQueue>();
        slot->name = info.name;
        slot->id = info.id;
        slot->weight = info.weight;
        slot->latency_metric = "serve.latency_us." + info.name;
    }
    return slot.get();
}

ServingEngine::ModelQueue* ServingEngine::pick_queue_locked() {
    // Smooth weighted round-robin: every contender earns its weight, the
    // winner repays the round's total — interleaved shares, no bursts.
    std::int64_t total = 0;
    ModelQueue* best = nullptr;
    for (auto& slot : queues_) {
        if (!slot || slot->queue.empty()) continue;
        slot->wrr_credit += static_cast<double>(slot->weight);
        total += slot->weight;
        if (best == nullptr || slot->wrr_credit > best->wrr_credit)
            best = slot.get();
    }
    if (best != nullptr) best->wrr_credit -= static_cast<double>(total);
    return best;
}

std::size_t ServingEngine::total_queued_locked() const {
    std::size_t n = 0;
    for (const auto& slot : queues_)
        if (slot) n += slot->queue.size();
    return n;
}

void ServingEngine::spawn_worker_locked() {
    auto worker = std::make_unique<Worker>();
    worker->id = next_worker_id_++;
    worker->heartbeat_ns.store(monotonic_ns(), std::memory_order_relaxed);
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { worker_loop(raw); });
    workers_.push_back(std::move(worker));
}

void ServingEngine::fulfill_value(Request& req, Tensor&& out) {
    AsyncOutcome outcome;
    outcome.ok = true;
    outcome.output = std::move(out);
    req.done(std::move(outcome));
}

void ServingEngine::fulfill_failure(Request& req, FailReason reason,
                                    const std::string& msg) {
    AsyncOutcome outcome;
    outcome.reason = reason;
    outcome.error = msg;
    req.done(std::move(outcome));
}

SubmitResult ServingEngine::submit(Tensor image, const SubmitOptions& opts) {
    // std::function needs a copyable target, so the promise is shared.
    auto promise = std::make_shared<std::promise<Tensor>>();
    std::future<Tensor> fut = promise->get_future();
    SubmitResult result = submit(
        std::move(image), opts, [promise](AsyncOutcome&& outcome) {
            if (outcome.ok) {
                promise->set_value(std::move(outcome.output));
            } else if (outcome.reason == FailReason::kDrained) {
                promise->set_exception(
                    std::make_exception_ptr(RequestDrained(outcome.error)));
            } else {
                promise->set_exception(std::make_exception_ptr(
                    DeadlineExceeded(outcome.error)));
            }
        });
    if (result.accepted()) result.future = std::move(fut);
    return result;
}

SubmitResult ServingEngine::submit(Tensor image, const SubmitOptions& opts,
                                   Completion done) {
    require(static_cast<bool>(done), "submit needs a completion");
    // Start of the per-request trace: the admission decision itself is a
    // span, and the enqueue timestamp taken here anchors the request's
    // queue-wait span, which the worker closes when it lifts the request
    // into a batch (see worker_loop) — so queue wait vs compute separate
    // on the Perfetto timeline.
    obs::Span submit_span("serve.submit", "serving");
    if (image.rank() == 4) {
        require(image.dim(0) == 1, "submit() takes a single image");
    } else {
        require(image.rank() == 3, "submit() expects a [C, H, W] image");
    }
    // Resolve the target model before taking the engine lock (the
    // registry has its own short mutex; never nest the two here).
    const std::optional<ModelInfo> info = opts.model.empty()
                                              ? registry_->find_id(0)
                                              : registry_->find(opts.model);
    SubmitResult result;
    if (!info.has_value()) {
        obs::count("serve.unknown_model");
        result.admission = Admission::kUnknownModel;
        return result;
    }
    require(image.numel() == info->model->input_elems,
            "submit() image shape mismatch: expected " +
                shape_str(info->model->input_chw) + ", got " +
                shape_str(image.shape()));

    const std::int64_t deadline_us =
        opts.deadline_us < 0 ? cfg_.default_deadline_us : opts.deadline_us;

    Request req;
    req.image = std::move(image);
    req.done = std::move(done);
    req.enqueue_ns = monotonic_ns();
    if (deadline_us > 0) req.deadline_ns = req.enqueue_ns + deadline_us * 1000;

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            result.admission = Admission::kStopped;
            return result;
        }
        if (const auto fault = fault::at("serving.submit")) {
            // Forced admission verdicts so overload paths are testable
            // without needing to actually saturate the queue.
            if (fault->action == "full" || fault->action == "overload") {
                ++rejected_;
                obs::count("serve.rejected");
                result.admission = fault->action == "full"
                                       ? Admission::kQueueFull
                                       : Admission::kOverloaded;
                result.retry_after_us =
                    static_cast<std::int64_t>(fault->value);
                return result;
            }
        }
        ModelQueue* mq = queue_for_locked(*info);
        if (mq->queue.size() >=
            static_cast<std::size_t>(cfg_.queue_capacity)) {
            // Capacity is per model: one hot variant filling its queue
            // must not close admission for the rest of the fleet.
            ++rejected_;
            ++mq->rejected;
            obs::count("serve.rejected");
            result.admission = Admission::kQueueFull;
            // Hint: roughly the time one queued request takes to drain.
            result.retry_after_us = static_cast<std::int64_t>(
                ewma_req_ms_ * 1000.0 / cfg_.workers);
            return result;
        }
        if (deadline_us > 0) {
            const std::int64_t est_wait_us = estimated_wait_us_locked();
            if (est_wait_us > deadline_us) {
                // Admission control: the request would expire in the
                // queue anyway — reject it now with an honest hint
                // instead of shedding it later (reject-newest).
                ++rejected_;
                obs::count("serve.rejected");
                obs::count("serve.overload_rejected");
                result.admission = Admission::kOverloaded;
                result.retry_after_us = est_wait_us - deadline_us;
                return result;
            }
        }
        mq->queue.push_back(std::move(req));
        obs::count("serve.requests");
    }
    cv_.notify_one();
    result.admission = Admission::kAccepted;
    return result;
}

std::int64_t ServingEngine::drain(std::int64_t timeout_us) {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) return 0;
    stopping_ = true;  // submits now answer kStopped; workers run dry
    cv_.notify_all();
    const auto idle = [this] {
        return total_queued_locked() == 0 && in_flight_batches_ == 0;
    };
    if (timeout_us < 0) {
        drain_cv_.wait(lock, idle);
    } else {
        drain_cv_.wait_for(lock, std::chrono::microseconds(timeout_us), idle);
    }
    // Expiry: whatever is still queued never ran and never will — fail it
    // now with the typed drain verdict instead of leaving clients hanging
    // until the join. (Batches already on a worker keep running; their
    // requests resolve with values when the worker finishes.)
    std::int64_t failed = 0;
    for (auto& slot : queues_) {
        if (!slot) continue;
        while (!slot->queue.empty()) {
            fulfill_failure(slot->queue.front(), FailReason::kDrained,
                            "request drained: engine shutting down before "
                            "the request could execute");
            ++drained_;
            obs::count("serve.drained");
            slot->queue.pop_front();
            ++failed;
        }
    }
    if (failed > 0) cv_.notify_all();  // wake workers: queues are empty now
    return failed;
}

void ServingEngine::stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) return;  // idempotent: later calls are no-ops
        stopped_ = true;
        stopping_ = true;
    }
    cv_.notify_all();
    watchdog_cv_.notify_all();
    // Join the watchdog first: afterwards workers_ can no longer grow.
    if (watchdog_.joinable()) watchdog_.join();
    for (auto& worker : workers_)
        if (worker->thread.joinable()) worker->thread.join();
    // Workers drain the queue before exiting, so normally nothing is left
    // here. But if every worker retired (engine build failure, watchdog
    // respawns racing stop) queued requests have no thread to run them —
    // fail them with the typed drain verdict rather than dropping their
    // completions on the floor.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& slot : queues_) {
        if (!slot) continue;
        while (!slot->queue.empty()) {
            fulfill_failure(slot->queue.front(), FailReason::kDrained,
                            "request drained: engine stopped with no live "
                            "worker left to run it");
            ++drained_;
            obs::count("serve.drained");
            slot->queue.pop_front();
        }
    }
}

ServingStats ServingEngine::stats() const {
    std::unique_lock<std::mutex> lock(mu_);
    ServingStats s;
    s.completed = completed_;
    s.rejected = rejected_;
    s.shed = shed_;
    s.drained = drained_;
    s.deadline_missed = deadline_missed_;
    s.worker_restarts = worker_restarts_;
    s.batches = batches_;
    s.mean_batch = batches_ > 0 ? static_cast<double>(batched_requests_) /
                                      static_cast<double>(batches_)
                                : 0.0;
    // Merge-on-read quantiles from the bounded histogram: O(buckets),
    // no retained samples, no sort — stats() stays cheap forever.
    s.p50_ms = static_cast<double>(latency_us_.value_at_quantile(0.50)) / 1000.0;
    s.p95_ms = static_cast<double>(latency_us_.value_at_quantile(0.95)) / 1000.0;
    s.p99_ms = static_cast<double>(latency_us_.value_at_quantile(0.99)) / 1000.0;
    // Throughput needs two completion timestamps and a positive span;
    // anything else reports 0 rather than dividing by a zero-width span.
    const std::int64_t span_ns = last_complete_ns_ - first_complete_ns_;
    if (completed_ > 1 && span_ns > 0)
        s.throughput_rps = static_cast<double>(completed_ - 1) /
                           (static_cast<double>(span_ns) * 1e-9);
    for (const auto& slot : queues_) {
        if (!slot) continue;
        ModelStats m;
        m.name = slot->name;
        m.id = slot->id;
        m.queued = static_cast<std::int64_t>(slot->queue.size());
        m.completed = slot->completed;
        m.rejected = slot->rejected;
        m.p50_ms =
            static_cast<double>(slot->latency_us.value_at_quantile(0.50)) /
            1000.0;
        m.p99_ms =
            static_cast<double>(slot->latency_us.value_at_quantile(0.99)) /
            1000.0;
        s.models.push_back(std::move(m));
    }
    lock.unlock();
    // Version lookups go to the registry's own mutex — outside mu_ so the
    // two locks never nest.
    for (ModelStats& m : s.models)
        if (const auto info = registry_->find_id(m.id))
            m.version = info->version;
    return s;
}

void ServingEngine::note_spike_locked(std::int64_t now_ns,
                                      std::int64_t& window_start_ns,
                                      std::int64_t& window_count,
                                      const char* reason) {
    if (window_start_ns == 0 || now_ns - window_start_ns > kSpikeWindowNs) {
        window_start_ns = now_ns;
        window_count = 0;
    }
    if (++window_count == kSpikeThreshold) {
        // Dumping under mu_ is deliberate: the dump path takes only
        // obs-side locks (rings, registry, dump state), never serving
        // locks, and it is rate-limited — freezing the queue briefly at
        // incident time beats losing the evidence.
        obs::flight_mark(reason);
        (void)obs::flight_dump(reason);
    }
}

void ServingEngine::shed_expired_locked(std::int64_t now_ns) {
    for (auto& slot : queues_) {
        if (!slot) continue;
        for (auto it = slot->queue.begin(); it != slot->queue.end();) {
            if (it->deadline_ns != 0 && now_ns >= it->deadline_ns) {
                const double late_ms =
                    static_cast<double>(now_ns - it->deadline_ns) * 1e-6;
                fulfill_failure(*it, FailReason::kDeadline,
                                "request shed: deadline exceeded by " +
                                    std::to_string(late_ms) +
                                    " ms while queued");
                ++shed_;
                obs::count("serve.shed");
                note_spike_locked(now_ns, shed_window_start_ns_,
                                  shed_window_count_, "shed_spike");
                it = slot->queue.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Shedding may have emptied the queues: let a pending drain() observe
    // the idle state without waiting for its timeout.
    if (total_queued_locked() == 0) drain_cv_.notify_all();
}

std::int64_t ServingEngine::estimated_wait_us_locked() const {
    if (ewma_req_ms_ <= 0.0) return 0;  // no signal yet: admit optimistically
    const double per_req_us = ewma_req_ms_ * 1000.0;
    return static_cast<std::int64_t>(
        per_req_us * static_cast<double>(total_queued_locked()) /
        static_cast<double>(cfg_.workers));
}

void ServingEngine::watchdog_loop() {
    const auto period = std::chrono::microseconds(
        std::max<std::int64_t>(cfg_.watchdog_timeout_us / 4, 1000));
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
        watchdog_cv_.wait_for(lock, period, [this] { return stopping_; });
        if (stopping_) return;
        const std::int64_t now = monotonic_ns();
        const std::size_t count = workers_.size();
        for (std::size_t i = 0; i < count; ++i) {
            Worker* w = workers_[i].get();
            if (w->retired.load(std::memory_order_relaxed)) continue;
            if (!w->busy.load(std::memory_order_relaxed)) continue;
            const std::int64_t busy_ns =
                now - w->heartbeat_ns.load(std::memory_order_relaxed);
            if (busy_ns <= cfg_.watchdog_timeout_us * 1000) continue;
            // Stuck worker: retire it (it still owns its in-flight batch
            // and will deliver those futures if it ever wakes) and bring
            // up a replacement with a fresh Engine for the queue.
            w->retired.store(true, std::memory_order_relaxed);
            ++worker_restarts_;
            obs::count("serve.worker_restarts");
            log_warn("[serving] worker " + std::to_string(w->id) +
                     " busy for " + std::to_string(busy_ns / 1000000) +
                     " ms (timeout " +
                     std::to_string(cfg_.watchdog_timeout_us / 1000) +
                     " ms) — spawning replacement");
            spawn_worker_locked();
            // A respawn always dumps the flight recorder: the spans the
            // stuck worker recorded before stalling are exactly the
            // evidence that explains the restart. Safe under mu_ — the
            // dump path never takes serving locks.
            obs::flight_mark("watchdog_restart");
            (void)obs::flight_dump("watchdog_restart");
        }
    }
}

void ServingEngine::worker_loop(Worker* self) {
    // One cached Engine per model id, rebuilt whenever the registry
    // snapshot changes under a hot reload — the worker notices the
    // pointer moved when it lifts the next batch for that model, rebuilds
    // its private arena, and drops the old snapshot's refcount (the
    // "drain the old engine" mechanism: the last rebuild frees it).
    struct CachedEngine {
        std::shared_ptr<const FrozenModel> model;
        std::optional<Engine> engine;
    };
    std::unordered_map<std::uint8_t, CachedEngine> engines;

    // Default-model bring-up stays eager: an arena failure here
    // (injectable via "engine.alloc") retires this worker instead of
    // tearing down the process; the remaining workers (or a later
    // watchdog respawn) keep the queues draining. Other models' engines
    // build lazily on their first batch.
    {
        const auto def = registry_->find_id(0);
        try {
            require(def.has_value(), "registry lost its default model");
            CachedEngine cached;
            cached.model = def->model;
            cached.engine.emplace(def->model, cfg_.max_batch);
            engines.emplace(std::uint8_t{0}, std::move(cached));
        } catch (const Error& e) {
            log_error("[serving] worker " + std::to_string(self->id) +
                      " failed to build its engine: " + e.what());
            self->retired.store(true, std::memory_order_relaxed);
            return;
        }
    }

    std::vector<Request> batch;
    std::vector<float> in;
    std::vector<float> out;

    for (;;) {
        batch.clear();
        ModelQueue* mq = nullptr;
        std::int64_t gather_start_ns = 0;  // batch-assembly span endpoints
        std::int64_t taken_ns = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            self->busy.store(false, std::memory_order_relaxed);
            cv_.wait(lock, [this, self] {
                return stopping_ ||
                       self->retired.load(std::memory_order_relaxed) ||
                       total_queued_locked() > 0;
            });
            // A retired worker never takes new queue work — its
            // replacement owns the queues now.
            if (self->retired.load(std::memory_order_relaxed)) return;
            gather_start_ns = monotonic_ns();
            shed_expired_locked(gather_start_ns);
            mq = pick_queue_locked();
            if (mq == nullptr) {
                // Stopping with drained queues: exit. Otherwise keep
                // serving until every accepted request is fulfilled.
                if (stopping_) return;
                continue;
            }
            // Work-conserving dispatch: a free worker lifts whatever the
            // picked queue holds, up to max_batch, without waiting for
            // more. Batches grow only from requests that arrived while
            // every worker was busy — an idle worker never sits on work.
            const std::size_t take = std::min(
                mq->queue.size(), static_cast<std::size_t>(cfg_.max_batch));
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(mq->queue.front()));
                mq->queue.pop_front();
            }
            // Mark busy while still holding the lock so the watchdog sees
            // a consistent (busy, heartbeat) pair for this batch.
            taken_ns = monotonic_ns();
            self->heartbeat_ns.store(taken_ns, std::memory_order_relaxed);
            self->busy.store(true, std::memory_order_relaxed);
            ++in_flight_batches_;  // drain() waits for this to hit zero
        }

        // Resolve the model snapshot AFTER the lift, outside the engine
        // lock: the reload gauntlet guarantees geometry never changes, so
        // a batch admitted against v(n) executes correctly on v(n+1) —
        // this is what makes the pointer swap invisible to in-flight
        // traffic.
        const auto info = registry_->find_id(mq->id);
        const std::shared_ptr<const FrozenModel> model =
            info.has_value() ? info->model : nullptr;
        CachedEngine& cached = engines[mq->id];
        if (model != nullptr && cached.model != model) {
            cached.engine.reset();  // free the old arena before re-planning
            cached.model = nullptr;
            try {
                cached.engine.emplace(model, cfg_.max_batch);
                cached.model = model;
            } catch (const Error& e) {
                log_error("[serving] worker " + std::to_string(self->id) +
                          " failed to rebuild engine for model '" +
                          mq->name + "': " + e.what());
            }
        }
        if (model == nullptr || !cached.engine.has_value()) {
            // No engine to run this batch (registry anomaly or rebuild
            // failure): fail it typed instead of crashing the worker —
            // the next batch retries the rebuild.
            std::lock_guard<std::mutex> lock(mu_);
            for (Request& r : batch) {
                fulfill_failure(r, FailReason::kDrained,
                                "request drained: no engine available for "
                                "model '" + mq->name + "'");
                ++drained_;
                obs::count("serve.drained");
            }
            --in_flight_batches_;
            if (total_queued_locked() == 0 && in_flight_batches_ == 0)
                drain_cv_.notify_all();
            continue;
        }
        Engine& engine = *cached.engine;

        if (obs::enabled()) {
            // Close the per-request queue-wait spans (opened at submit via
            // enqueue_ns) and the batch-assembly window; engine execution
            // below gets its own span, so the timeline splits a request's
            // latency into wait vs compute.
            obs::record_span("serve.batch_assemble", "serving",
                             gather_start_ns, taken_ns);
            for (const Request& r : batch)
                obs::record_span("serve.queue_wait", "serving", r.enqueue_ns,
                                 taken_ns);
        }

        // Service time starts here so an injected stall below is part of
        // the measured window (a slow worker must look slow to admission).
        const std::int64_t exec_start_ns = monotonic_ns();

        if (const auto fault = fault::at("serving.worker");
            fault && (fault->action == "delay" || fault->action == "stuck")) {
            // Injected stall: the worker sleeps holding its batch, exactly
            // what a page fault storm / runaway kernel looks like from the
            // queue's point of view. Bounded so joins always succeed.
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<std::int64_t>(fault->value)));
        }

        const int n = static_cast<int>(batch.size());
        {
            obs::Span compute_span("serve.batch_compute", "serving");
            // Grow-only scratch sized for this model (a heterogeneous
            // fleet can mix geometries across queues).
            in.resize(static_cast<std::size_t>(n) *
                      static_cast<std::size_t>(model->input_elems));
            out.resize(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(model->output_elems));
            for (int i = 0; i < n; ++i)
                std::memcpy(
                    in.data() +
                        static_cast<std::int64_t>(i) * model->input_elems,
                    batch[static_cast<std::size_t>(i)].image.data().data(),
                    static_cast<std::size_t>(model->input_elems) *
                        sizeof(float));
            engine.run(
                {in.data(), static_cast<std::size_t>(n * model->input_elems)},
                n,
                {out.data(),
                 static_cast<std::size_t>(n * model->output_elems)});
        }

        const std::int64_t done_ns = monotonic_ns();
        {
            // Record stats BEFORE invoking the completions: a client that
            // returns from future.get() must already see its request in
            // stats() (completed, batches, latency percentiles).
            std::lock_guard<std::mutex> lock(mu_);
            ++batches_;
            batched_requests_ += n;
            obs::count("serve.batches");
            // Service-time EWMA feeding admission control. The window
            // covers the injected stall on purpose: a slow worker should
            // make the engine advertise longer waits.
            const double batch_ms =
                static_cast<double>(done_ns - exec_start_ns) * 1e-6;
            const double req_ms = batch_ms / static_cast<double>(n);
            ewma_req_ms_ = ewma_req_ms_ <= 0.0
                               ? req_ms
                               : 0.8 * ewma_req_ms_ + 0.2 * req_ms;
            obs::observe_hdr_us("serve.batch_compute_us",
                                (done_ns - exec_start_ns) / 1000);
            for (int i = 0; i < n; ++i) {
                const Request& r = batch[static_cast<std::size_t>(i)];
                const std::int64_t us = (done_ns - r.enqueue_ns) / 1000;
                // Unconditional: these histograms back stats() whether or
                // not obs is enabled (bounded memory either way).
                latency_us_.observe(us);
                mq->latency_us.observe(us);
                obs::observe_hdr_us("serve.latency_us", us);
                obs::observe_hdr_us(mq->latency_metric, us);
                obs::observe_hdr_us("serve.queue_wait_us",
                                    (taken_ns - r.enqueue_ns) / 1000);
                obs::observe("serve.latency_ms",
                             static_cast<double>(us) * 1e-3);
                if (r.deadline_ns != 0 && done_ns > r.deadline_ns) {
                    ++deadline_missed_;
                    obs::count("serve.deadline_missed");
                    note_spike_locked(done_ns, miss_window_start_ns_,
                                      miss_window_count_, "deadline_miss_spike");
                }
            }
            if (completed_ == 0) first_complete_ns_ = done_ns;
            last_complete_ns_ = done_ns;
            completed_ += n;
            mq->completed += n;
            --in_flight_batches_;
            if (total_queued_locked() == 0 && in_flight_batches_ == 0)
                drain_cv_.notify_all();
        }

        Shape per_image = model->output_shape;
        for (int i = 0; i < n; ++i) {
            Tensor result(per_image);
            std::memcpy(result.data().data(),
                        out.data() +
                            static_cast<std::int64_t>(i) * model->output_elems,
                        static_cast<std::size_t>(model->output_elems) *
                            sizeof(float));
            fulfill_value(batch[static_cast<std::size_t>(i)],
                          std::move(result));
        }
    }
}

} // namespace hs::infer
