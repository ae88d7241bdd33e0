#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>

#include "fault/fault.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace hs::net {
namespace {

/// epoll user-data token of the per-loop wake eventfd (connection ids
/// start at 1, so 0 is free).
constexpr std::uint64_t kWakeToken = 0;

void wake_eventfd(int fd) {
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the reader; ignore errors.
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

void drain_eventfd(int fd) {
    std::uint64_t value = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd, &value, sizeof(value));
}

} // namespace

/// One client connection. Owned — and exclusively touched — by a single
/// event-loop thread; everything cross-thread goes through the loop's
/// mailbox.
struct Server::Conn {
    ScopedFd fd;
    std::uint64_t id = 0;
    std::string rbuf;        ///< unparsed inbound bytes
    std::string wbuf;        ///< outbound bytes not yet written
    std::size_t woff = 0;    ///< wbuf prefix already written
    bool paused_read = false;      ///< EPOLLIN off (write backpressure)
    bool close_after_flush = false;
    bool dead = false;             ///< fatal socket error; close asap
    std::uint32_t epoll_events = 0;  ///< currently registered event mask

    [[nodiscard]] std::size_t pending_out() const {
        return wbuf.size() - woff;
    }
};

struct Server::EventLoop {
    std::size_t index = 0;
    ScopedFd epoll_fd;
    ScopedFd wake_fd;
    std::thread thread;

    struct Outbound {
        std::uint64_t conn_id = 0;
        std::string bytes;
    };
    std::mutex mu;  ///< guards mailbox, pending_fds, open
    std::vector<Outbound> mailbox;
    std::vector<int> pending_fds;  ///< accepted sockets awaiting adoption
    bool open = true;  ///< false once the loop exits; posts are dropped

    /// Loop-owned; no other thread touches it.
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    /// True when the loop has nothing buffered anywhere (drain() polls).
    std::atomic<bool> quiescent{true};
};

Server::Server(infer::ServingEngine& engine, ServerConfig cfg)
    : engine_(engine), registry_(engine.registry()), cfg_(std::move(cfg)) {
    require(cfg_.event_loops >= 1, "Server needs at least one event loop");
    require(cfg_.write_low_water <= cfg_.write_high_water,
            "Server write_low_water must not exceed write_high_water");
}

Server::~Server() { stop(); }

void Server::start() {
    require(!running_.load(), "Server::start() called twice");
    auto [fd, port] = listen_tcp(cfg_.host, cfg_.port, cfg_.backlog);
    listen_fd_ = std::move(fd);
    port_ = port;
    set_nonblocking(listen_fd_.get());

    acceptor_wake_ = ScopedFd(::eventfd(0, EFD_NONBLOCK));
    if (!acceptor_wake_.valid()) throw_errno("eventfd");

    loops_.clear();
    for (int i = 0; i < cfg_.event_loops; ++i) {
        auto loop = std::make_unique<EventLoop>();
        loop->index = static_cast<std::size_t>(i);
        loop->epoll_fd = ScopedFd(::epoll_create1(0));
        if (!loop->epoll_fd.valid()) throw_errno("epoll_create1");
        loop->wake_fd = ScopedFd(::eventfd(0, EFD_NONBLOCK));
        if (!loop->wake_fd.valid()) throw_errno("eventfd");
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kWakeToken;
        if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD,
                        loop->wake_fd.get(), &ev) < 0)
            throw_errno("epoll_ctl(wake)");
        loops_.push_back(std::move(loop));
    }

    running_.store(true);
    stopping_.store(false);
    for (auto& loop : loops_) {
        EventLoop* raw = loop.get();
        loop->thread = std::thread([this, raw] { event_loop(raw); });
    }
    {
        std::lock_guard<std::mutex> lock(admin_mu_);
        admin_stop_ = false;
        admin_jobs_.clear();
    }
    admin_thread_ = std::thread([this] { admin_loop(); });
    acceptor_ = std::thread([this] { acceptor_loop(); });
    log_info("[net] listening on " + cfg_.host + ":" + std::to_string(port_) +
             " (" + std::to_string(cfg_.event_loops) + " event loops)");
}

void Server::begin_drain() {
    draining_.store(true);
    if (acceptor_wake_.valid()) wake_eventfd(acceptor_wake_.get());
}

bool Server::drain(std::int64_t timeout_us) {
    begin_drain();
    const std::int64_t start_ns = monotonic_ns();
    for (;;) {
        bool idle = in_flight_.load(std::memory_order_acquire) == 0;
        for (const auto& loop : loops_)
            idle = idle && loop->quiescent.load(std::memory_order_acquire);
        if (idle) return true;
        if ((monotonic_ns() - start_ns) / 1000 >= timeout_us) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void Server::stop() {
    if (!running_.exchange(false)) return;
    stopping_.store(true);
    if (acceptor_wake_.valid()) wake_eventfd(acceptor_wake_.get());
    for (auto& loop : loops_) wake_eventfd(loop->wake_fd.get());
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& loop : loops_)
        if (loop->thread.joinable()) loop->thread.join();
    {
        std::lock_guard<std::mutex> lock(admin_mu_);
        admin_stop_ = true;
    }
    admin_cv_.notify_all();
    if (admin_thread_.joinable()) admin_thread_.join();
    // Engine completions capture `this` and touch in_flight_ after posting
    // their reply: wait for the last one to return so the Server can be
    // destroyed. The engine resolves every accepted request exactly once
    // (stop() and drain() included), so this terminates.
    while (in_flight_.load(std::memory_order_acquire) != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    listen_fd_.reset();
}

NetStats Server::stats() const {
    NetStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.closed = closed_.load(std::memory_order_relaxed);
    s.frames_in = frames_in_.load(std::memory_order_relaxed);
    s.responses = responses_.load(std::memory_order_relaxed);
    s.nacks = nacks_.load(std::memory_order_relaxed);
    s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    return s;
}

void Server::acceptor_loop() {
    ScopedFd ep(::epoll_create1(0));
    if (!ep.valid()) {
        log_error("[net] acceptor epoll_create1 failed");
        return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, acceptor_wake_.get(), &ev);
    ev.data.u64 = 1;
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev);
    bool listening = true;
    std::size_t next_loop = 0;

    epoll_event events[8];
    while (!stopping_.load(std::memory_order_acquire)) {
        // Draining: stop accepting for good. Closing the fd both refuses
        // new connections outright and deregisters it from epoll.
        if (listening && draining_.load(std::memory_order_acquire)) {
            listen_fd_.reset();
            listening = false;
        }
        const int n = ::epoll_wait(ep.get(), events, 8, 200);
        if (n < 0) {
            if (errno == EINTR) continue;
            log_error("[net] acceptor epoll_wait: " +
                      std::string(std::strerror(errno)));
            return;
        }
        for (int i = 0; i < n; ++i) {
            if (events[i].data.u64 == kWakeToken) {
                drain_eventfd(acceptor_wake_.get());
                continue;
            }
            if (!listening) continue;
            obs::Span span("net.accept", "net");
            for (;;) {
                const int fd =
                    ::accept4(listen_fd_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK);
                if (fd < 0) break;  // EAGAIN / transient — try next wake
                try {
                    set_nodelay(fd);
                } catch (const Error&) {
                    // Peer vanished between accept and setsockopt.
                    ::close(fd);
                    continue;
                }
                accepted_.fetch_add(1, std::memory_order_relaxed);
                obs::count("net.accepted");
                EventLoop& loop = *loops_[next_loop];
                next_loop = (next_loop + 1) % loops_.size();
                bool adopted = false;
                {
                    std::lock_guard<std::mutex> lock(loop.mu);
                    if (loop.open) {
                        loop.pending_fds.push_back(fd);
                        loop.quiescent.store(false,
                                             std::memory_order_release);
                        adopted = true;
                    }
                }
                if (adopted)
                    wake_eventfd(loop.wake_fd.get());
                else
                    ::close(fd);
            }
        }
    }
}

void Server::post_completion(std::size_t loop_index, std::uint64_t conn_id,
                             std::string bytes, bool is_nack) {
    if (is_nack) {
        nacks_.fetch_add(1, std::memory_order_relaxed);
        obs::count("net.nacks");
    } else {
        responses_.fetch_add(1, std::memory_order_relaxed);
        obs::count("net.frames_out");
    }
    EventLoop& loop = *loops_[loop_index];
    {
        std::lock_guard<std::mutex> lock(loop.mu);
        if (!loop.open) return;  // loop already exited: drop on the floor
        loop.mailbox.push_back({conn_id, std::move(bytes)});
        loop.quiescent.store(false, std::memory_order_release);
    }
    wake_eventfd(loop.wake_fd.get());
}

void Server::queue_bytes(EventLoop& loop, Conn& conn,
                         std::string_view bytes) {
    conn.wbuf.append(bytes);
    flush_conn(loop, conn);
}

void Server::flush_conn(EventLoop& loop, Conn& conn) {
    (void)loop;
    if (conn.dead) return;
    obs::Span span("net.write", "net");
    while (conn.woff < conn.wbuf.size()) {
        const ssize_t wrote =
            ::send(conn.fd.get(), conn.wbuf.data() + conn.woff,
                   conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
        if (wrote > 0) {
            conn.woff += static_cast<std::size_t>(wrote);
            bytes_out_.fetch_add(wrote, std::memory_order_relaxed);
            obs::count("net.bytes_out", wrote);
            continue;
        }
        if (wrote < 0 && errno == EINTR) continue;
        if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.dead = true;  // peer reset mid-write
        return;
    }
    if (conn.woff == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.woff = 0;
    } else if (conn.woff > (1u << 16)) {
        // Compact so the buffer does not grow a dead prefix forever.
        conn.wbuf.erase(0, conn.woff);
        conn.woff = 0;
    }
    // Backpressure: a client not reading its responses eventually stops
    // being read from, which closes its TCP window — the overload stays
    // in the kernel/socket instead of the engine queue.
    if (conn.pending_out() > cfg_.write_high_water) {
        conn.paused_read = true;
    } else if (conn.paused_read && !conn.close_after_flush &&
               conn.pending_out() < cfg_.write_low_water) {
        conn.paused_read = false;
    }
}

void Server::update_epoll(EventLoop& loop, Conn& conn) {
    std::uint32_t want = 0;
    if (!conn.paused_read) want |= EPOLLIN;
    if (conn.pending_out() > 0) want |= EPOLLOUT;
    if (want == conn.epoll_events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    if (::epoll_ctl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev) <
        0)
        conn.dead = true;
    else
        conn.epoll_events = want;
}

void Server::close_conn(EventLoop& loop, std::uint64_t conn_id) {
    if (loop.conns.erase(conn_id) > 0) {
        closed_.fetch_add(1, std::memory_order_relaxed);
        obs::count("net.closed");
    }
}

bool Server::process_frames(EventLoop& loop, Conn& conn) {
    for (;;) {
        Frame frame;
        const DecodeResult res = decode_frame(conn.rbuf, frame);
        if (res.status == DecodeStatus::kNeedMore) return true;
        if (res.status == DecodeStatus::kBad) {
            bad_frames_.fetch_add(1, std::memory_order_relaxed);
            obs::count("net.bad_frames");
            log_warn("[net] conn " + std::to_string(conn.id) +
                     ": protocol error (" + res.error + ") — closing");
            // Best-effort typed goodbye, then close once it flushed.
            queue_bytes(loop, conn,
                        encode_nack(0, NackReason::kBadRequest, 0));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            conn.close_after_flush = true;
            conn.paused_read = true;
            return true;
        }
        conn.rbuf.erase(0, res.consumed);

        const std::uint64_t req_id = frame.header.request_id;

        if (frame.header.type == FrameType::kHealth) {
            // Cheap, read-only: answered inline on the loop thread.
            queue_bytes(loop, conn,
                        encode_admin_response(req_id, true, health_json()));
            responses_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (frame.header.type == FrameType::kReload) {
            const auto req = parse_reload(frame);
            if (!req.has_value()) {
                queue_bytes(loop, conn,
                            encode_nack(req_id, NackReason::kBadRequest, 0));
                nacks_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (draining_.load(std::memory_order_acquire) ||
                stopping_.load(std::memory_order_acquire)) {
                queue_bytes(loop, conn,
                            encode_nack(req_id, NackReason::kDraining, 0));
                nacks_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            AdminJob job;
            job.loop_index = loop.index;
            job.conn_id = conn.id;
            job.request_id = req_id;
            job.name = req->name;
            job.path = req->path;
            in_flight_.fetch_add(1, std::memory_order_acq_rel);
            {
                std::lock_guard<std::mutex> lock(admin_mu_);
                admin_jobs_.push_back(std::move(job));
            }
            admin_cv_.notify_one();
            continue;
        }
        if (frame.header.type != FrameType::kRequest) {
            // Clients must only send requests; echoing garbage back and
            // forth helps nobody.
            queue_bytes(loop, conn,
                        encode_nack(req_id, NackReason::kBadRequest, 0));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        obs::count("net.frames_in");

        if (draining_.load(std::memory_order_acquire) ||
            stopping_.load(std::memory_order_acquire)) {
            queue_bytes(loop, conn,
                        encode_nack(req_id, NackReason::kDraining, 0));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        // Resolve the target model per frame — a hot swap between two
        // frames of one connection must route the second to the new
        // snapshot.
        const std::uint8_t model_id = frame.header.model_id;
        const auto info = registry_->find_id(model_id);
        if (!info.has_value()) {
            queue_bytes(loop, conn,
                        encode_nack(req_id, NackReason::kUnknownModel, 0));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            obs::count("net.nacks");
            continue;
        }
        const infer::FrozenModel& model = *info->model;
        const bool model_int8 = model.precision == infer::Precision::kInt8;
        const std::size_t want_bytes =
            static_cast<std::size_t>(model.input_elems) * sizeof(float);
        if (frame.int8_flag() != model_int8 ||
            frame.payload.size() != want_bytes) {
            queue_bytes(loop, conn,
                        encode_nack(req_id, NackReason::kBadRequest, 0));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }

        Tensor image(model.input_chw);
        std::memcpy(image.data().data(), frame.payload.data(),
                    frame.payload.size());
        infer::SubmitOptions opts;
        opts.deadline_us =
            static_cast<std::int64_t>(frame.header.deadline_us);
        opts.model = info->name;

        const std::size_t loop_index = loop.index;
        const std::uint64_t conn_id = conn.id;
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
        auto completion = [this, loop_index, conn_id, req_id, model_int8,
                           model_id](infer::AsyncOutcome&& outcome) {
            // Runs on an engine worker (or inside the engine lock for
            // shed/drain) — encode and post to the owning loop's mailbox,
            // never touch the connection directly.
            std::string bytes;
            bool is_nack = false;
            if (outcome.ok) {
                bytes = encode_response(
                    req_id, model_int8,
                    std::span<const float>(
                        outcome.output.data().data(),
                        static_cast<std::size_t>(outcome.output.numel())),
                    model_id);
            } else {
                const NackReason reason =
                    outcome.reason == infer::FailReason::kDrained
                        ? NackReason::kDraining
                        : NackReason::kShedDeadline;
                bytes = encode_nack(req_id, reason, 0);
                is_nack = true;
            }
            post_completion(loop_index, conn_id, std::move(bytes), is_nack);
            in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        };
        const infer::SubmitResult sr =
            engine_.submit(std::move(image), opts, std::move(completion));
        if (!sr.accepted()) {
            in_flight_.fetch_sub(1, std::memory_order_acq_rel);
            NackReason reason = NackReason::kDraining;
            if (sr.admission == infer::Admission::kQueueFull)
                reason = NackReason::kQueueFull;
            else if (sr.admission == infer::Admission::kOverloaded)
                reason = NackReason::kOverloaded;
            else if (sr.admission == infer::Admission::kUnknownModel)
                reason = NackReason::kUnknownModel;
            queue_bytes(loop, conn,
                        encode_nack(req_id, reason,
                                    static_cast<std::uint64_t>(
                                        std::max<std::int64_t>(
                                            sr.retry_after_us, 0))));
            nacks_.fetch_add(1, std::memory_order_relaxed);
            obs::count("net.nacks");
        }
        if (conn.paused_read) return true;  // backpressure kicked in
    }
}

void Server::handle_readable(EventLoop& loop, Conn& conn) {
    obs::Span span("net.read", "net");
    char buf[65536];
    while (!conn.paused_read && !conn.dead && !conn.close_after_flush) {
        std::size_t cap = sizeof(buf);
        bool clamped = false;
        if (const auto f = fault::at("net.read")) {
            if (f->action == "reset") {
                // Injected peer reset: drop the connection on the floor,
                // exactly what a mid-request RST looks like.
                conn.dead = true;
                return;
            }
            if (f->action == "short") {
                cap = std::max<std::size_t>(
                    1, static_cast<std::size_t>(f->value));
                clamped = true;
            }
        }
        const ssize_t got = ::recv(conn.fd.get(), buf, cap, 0);
        if (got > 0) {
            bytes_in_.fetch_add(got, std::memory_order_relaxed);
            obs::count("net.bytes_in", got);
            conn.rbuf.append(buf, static_cast<std::size_t>(got));
            if (!process_frames(loop, conn)) {
                conn.dead = true;
                return;
            }
            // One clamped read per pass keeps an armed short-read fault
            // from spinning this loop at 1 byte per iteration forever.
            if (clamped) return;
            continue;
        }
        if (got == 0) {  // orderly peer close
            conn.dead = true;
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        conn.dead = true;  // hard error (ECONNRESET, ...)
        return;
    }
}

void Server::handle_writable(EventLoop& loop, Conn& conn) {
    const bool was_paused = conn.paused_read;
    flush_conn(loop, conn);
    // Flushing may lift the backpressure pause; frames that piled up in
    // rbuf while reads were off must be parsed now — no further EPOLLIN
    // will fire for bytes we already consumed from the kernel.
    if (was_paused && !conn.paused_read && !conn.rbuf.empty())
        (void)process_frames(loop, conn);
}

void Server::event_loop(EventLoop* loop) {
    epoll_event events[64];
    std::vector<EventLoop::Outbound> mail;
    std::vector<int> adopts;
    while (!stopping_.load(std::memory_order_acquire)) {
        // Advertise quiescence before blocking so drain() can observe
        // "nothing buffered anywhere" while we sleep in epoll_wait.
        {
            std::lock_guard<std::mutex> lock(loop->mu);
            bool idle = loop->mailbox.empty() && loop->pending_fds.empty();
            if (idle)
                for (const auto& [id, conn] : loop->conns)
                    if (conn->pending_out() > 0) {
                        idle = false;
                        break;
                    }
            loop->quiescent.store(idle, std::memory_order_release);
        }

        const int n = ::epoll_wait(loop->epoll_fd.get(), events, 64, 100);
        if (stopping_.load(std::memory_order_acquire)) break;
        if (n < 0) {
            if (errno == EINTR) continue;
            log_error("[net] event loop epoll_wait: " +
                      std::string(std::strerror(errno)));
            break;
        }

        // Adopt newly accepted connections and deliver completed
        // responses posted by engine workers.
        mail.clear();
        adopts.clear();
        {
            std::lock_guard<std::mutex> lock(loop->mu);
            std::swap(mail, loop->mailbox);
            std::swap(adopts, loop->pending_fds);
        }
        for (const int fd : adopts) {
            auto conn = std::make_unique<Conn>();
            conn->fd = ScopedFd(fd);
            conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = conn->id;
            if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) <
                0) {
                log_warn("[net] epoll_ctl(ADD) failed; dropping connection");
                continue;
            }
            conn->epoll_events = EPOLLIN;
            loop->conns.emplace(conn->id, std::move(conn));
        }
        for (auto& out : mail) {
            const auto it = loop->conns.find(out.conn_id);
            if (it == loop->conns.end()) continue;  // conn already gone
            Conn& conn = *it->second;
            const bool was_paused = conn.paused_read;
            queue_bytes(*loop, conn, out.bytes);
            if (was_paused && !conn.paused_read && !conn.rbuf.empty())
                (void)process_frames(*loop, conn);
            update_epoll(*loop, conn);
            if (conn.dead ||
                (conn.close_after_flush && conn.pending_out() == 0))
                close_conn(*loop, out.conn_id);
        }

        for (int i = 0; i < n; ++i) {
            const std::uint64_t token = events[i].data.u64;
            if (token == kWakeToken) {
                drain_eventfd(loop->wake_fd.get());
                continue;
            }
            const auto it = loop->conns.find(token);
            if (it == loop->conns.end()) continue;  // closed this batch
            Conn& conn = *it->second;
            const std::uint32_t ev = events[i].events;
            if (ev & (EPOLLHUP | EPOLLERR)) conn.dead = true;
            if (!conn.dead && (ev & EPOLLIN)) handle_readable(*loop, conn);
            if (!conn.dead && (ev & EPOLLOUT)) handle_writable(*loop, conn);
            if (!conn.dead) update_epoll(*loop, conn);
            if (conn.dead ||
                (conn.close_after_flush && conn.pending_out() == 0))
                close_conn(*loop, token);
        }
    }

    // Exit: refuse further posts, then best-effort flush and close.
    {
        std::lock_guard<std::mutex> lock(loop->mu);
        loop->open = false;
        for (const int fd : loop->pending_fds) ::close(fd);
        loop->pending_fds.clear();
        loop->mailbox.clear();
    }
    for (auto& [id, conn] : loop->conns) flush_conn(*loop, *conn);
    const auto open_conns = loop->conns.size();
    loop->conns.clear();
    closed_.fetch_add(static_cast<std::int64_t>(open_conns),
                      std::memory_order_relaxed);
    loop->quiescent.store(true, std::memory_order_release);
}

void Server::admin_loop() {
    for (;;) {
        AdminJob job;
        {
            std::unique_lock<std::mutex> lock(admin_mu_);
            admin_cv_.wait(lock, [this] {
                return admin_stop_ || !admin_jobs_.empty();
            });
            if (admin_jobs_.empty()) {
                if (admin_stop_) return;
                continue;
            }
            job = std::move(admin_jobs_.front());
            admin_jobs_.pop_front();
        }
        // The gauntlet (load + canary inference) runs here, off every
        // event loop; the hot path keeps serving the incumbent meanwhile.
        infer::ReloadResult r;
        try {
            r = engine_.reload(job.name, job.path);
        } catch (const std::exception& e) {
            r.ok = false;
            r.stage = "swap";
            r.error = e.what();
        }
        std::string text;
        if (r.ok) {
            text = "reloaded '" + r.name + "' v" +
                   std::to_string(r.old_version) + " -> v" +
                   std::to_string(r.new_version);
        } else {
            text = "reload '" + job.name + "' rolled back at stage '" +
                   r.stage + "': " + r.error;
        }
        post_completion(job.loop_index, job.conn_id,
                        encode_admin_response(job.request_id, r.ok, text),
                        !r.ok);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

std::string Server::health_json() const {
    const infer::ServingStats s = engine_.stats();
    std::string json = "{\"models\":[";
    bool first = true;
    for (const auto& m : s.models) {
        if (!first) json += ',';
        first = false;
        json += "{\"name\":\"" + m.name +
                "\",\"id\":" + std::to_string(static_cast<int>(m.id)) +
                ",\"version\":" + std::to_string(m.version) +
                ",\"queued\":" + std::to_string(m.queued) +
                ",\"completed\":" + std::to_string(m.completed) +
                ",\"rejected\":" + std::to_string(m.rejected) +
                ",\"p50_ms\":" + std::to_string(m.p50_ms) +
                ",\"p99_ms\":" + std::to_string(m.p99_ms) + "}";
    }
    const auto rs = registry_->reload_stats();
    json += "],\"completed\":" + std::to_string(s.completed) +
            ",\"rejected\":" + std::to_string(s.rejected) +
            ",\"shed\":" + std::to_string(s.shed) +
            ",\"reload_attempts\":" + std::to_string(rs.attempts) +
            ",\"reload_successes\":" + std::to_string(rs.successes) +
            ",\"reload_rollbacks\":" + std::to_string(rs.rollbacks) + "}";
    return json;
}

} // namespace hs::net
