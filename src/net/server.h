#pragma once

// hs::net::Server — the epoll TCP serving front-end. One acceptor thread
// plus N event-loop threads multiplex non-blocking connections onto the
// bounded ServingEngine queue:
//
//   socket readable -> read + incremental frame decode -> validate ->
//   ServingEngine::submit (callback flavor, deadline from the frame) ->
//   worker completes -> completion posts the encoded response to the
//   owning event loop's mailbox + eventfd -> loop appends to the
//   connection's write buffer and flushes.
//
// Threading model (DESIGN.md §12): every connection is owned by exactly
// one event loop; only that loop thread touches the connection object.
// Engine worker threads never see a connection — completions carry the
// (loop, connection id, bytes) triple through a mutex-guarded mailbox, so
// the only cross-thread state is the mailbox and a handful of atomics.
// Lock ordering: a loop may call ServingEngine::submit (which takes the
// engine lock); engine callbacks may take a mailbox lock. The engine lock
// is therefore always acquired BEFORE a mailbox lock and never the other
// way around — the loop never holds its mailbox lock while submitting.
//
// Backpressure propagates end to end: a slow client fills its per-
// connection write buffer; past the high-water mark the loop stops
// reading from that socket (EPOLLIN off), so the client's TCP window
// closes and its pipelined requests stay in the kernel instead of the
// engine queue. The engine's own bounded queue rejects the rest with
// typed NACK frames carrying the EWMA retry-after hint.
//
// Fleet serving (protocol v2): the request header's model-id byte routes
// each frame to a registry model — the server resolves the id per frame
// (never caching a snapshot), validates shape/precision against that
// model's current version, and NACKs an unregistered id with the typed
// kUnknownModel. Model id 0 is the default model. A frame of any other
// protocol version fails to decode: it gets a kBadRequest NACK and the
// connection closes.
//
// Admin frames ride the same connection: kHealth is answered inline from
// engine stats (cheap, read-only); kReload is queued to a dedicated admin
// thread — the validation gauntlet runs canary inference, which must
// never block an event loop — and the verdict comes back as a
// kAdminResponse through the normal completion mailbox.
//
// Shutdown (the SIGTERM path): begin_drain() stops accepting sockets and
// NACKs new request frames with kDraining; the caller then drains the
// ServingEngine (completing or NACKing everything in flight) and calls
// drain() to wait for response bytes to flush, then stop(). Stop the
// engine before destroying the Server — completions post through it.
//
// Fault site (hs::fault): "net.read" — action "short:<bytes>" clamps one
// read() to that many bytes (exercising frame reassembly), action
// "reset" closes the connection as a peer reset would.
//
// Observability: spans net.accept / net.read / net.write; counters
// net.accepted / net.closed / net.frames_in / net.frames_out /
// net.nacks / net.bad_frames / net.bytes_in / net.bytes_out.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "infer/serving.h"
#include "net/socket.h"

namespace hs::net {

struct ServerConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() tells
    int event_loops = 2;     ///< connection-owning epoll threads
    int backlog = 128;
    /// Stop reading a connection whose unsent responses exceed this…
    std::size_t write_high_water = 1 << 20;
    /// …and resume once they drain below this.
    std::size_t write_low_water = 64 << 10;
};

/// Transport-level counters (always on; cheap relaxed atomics).
struct NetStats {
    std::int64_t accepted = 0;
    std::int64_t closed = 0;
    std::int64_t frames_in = 0;   ///< well-formed request frames
    std::int64_t responses = 0;   ///< response frames queued for write
    std::int64_t nacks = 0;       ///< NACK frames queued for write
    std::int64_t bad_frames = 0;  ///< decode failures (connection dropped)
    std::int64_t bytes_in = 0;
    std::int64_t bytes_out = 0;
};

class Server {
public:
    /// The engine (and the model it serves) must outlive the Server; the
    /// Server must be stopped before the engine is destroyed.
    Server(infer::ServingEngine& engine, ServerConfig cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen, spawn the acceptor + event loops. Throws hs::Error
    /// on any socket failure.
    void start();

    /// Actually bound port (after start()).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Stop accepting connections; request frames still arriving on open
    /// connections are NACKed kDraining. Idempotent.
    void begin_drain();

    /// begin_drain(), then wait up to `timeout_us` for every in-flight
    /// request to resolve and every response byte to flush. Returns true
    /// when the server went fully quiescent within the timeout.
    bool drain(std::int64_t timeout_us);

    /// Tear down: wake and join every thread, wait for outstanding engine
    /// completions to return, close every socket. Responses still
    /// buffered get one best-effort flush. Idempotent.
    void stop();

    [[nodiscard]] NetStats stats() const;

private:
    struct Conn;
    struct EventLoop;

    /// One queued kReload frame, run by the admin thread off the event
    /// loops (the gauntlet's canary inference is far too slow for a loop
    /// thread).
    struct AdminJob {
        std::size_t loop_index = 0;
        std::uint64_t conn_id = 0;
        std::uint64_t request_id = 0;
        std::string name;
        std::string path;
    };

    void acceptor_loop();
    void event_loop(EventLoop* loop);
    void admin_loop();
    /// Fleet health snapshot (JSON): per-model name/id/version/queue
    /// depth/completions plus aggregate counters.
    [[nodiscard]] std::string health_json() const;
    void post_completion(std::size_t loop_index, std::uint64_t conn_id,
                         std::string bytes, bool is_nack);
    void handle_readable(EventLoop& loop, Conn& conn);
    void handle_writable(EventLoop& loop, Conn& conn);
    /// Decode + dispatch every complete frame in conn.rbuf. Returns false
    /// when the connection must be closed (protocol error).
    bool process_frames(EventLoop& loop, Conn& conn);
    void queue_bytes(EventLoop& loop, Conn& conn, std::string_view bytes);
    void flush_conn(EventLoop& loop, Conn& conn);
    void update_epoll(EventLoop& loop, Conn& conn);
    void close_conn(EventLoop& loop, std::uint64_t conn_id);

    infer::ServingEngine& engine_;
    /// Model resolution is per request frame via the registry — never a
    /// cached snapshot, or a hot swap would be invisible here.
    std::shared_ptr<infer::ModelRegistry> registry_;
    ServerConfig cfg_;
    std::uint16_t port_ = 0;

    // Admin (reload) worker: jobs in, verdicts out via post_completion.
    std::thread admin_thread_;
    std::mutex admin_mu_;
    std::condition_variable admin_cv_;
    std::deque<AdminJob> admin_jobs_;
    bool admin_stop_ = false;

    ScopedFd listen_fd_;
    ScopedFd acceptor_wake_;
    std::thread acceptor_;
    std::vector<std::unique_ptr<EventLoop>> loops_;
    std::atomic<std::uint64_t> next_conn_id_{1};
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::int64_t> in_flight_{0};  ///< accepted, not yet posted

    // NetStats backing (relaxed atomics; loops and callbacks bump them).
    std::atomic<std::int64_t> accepted_{0}, closed_{0}, frames_in_{0},
        responses_{0}, nacks_{0}, bad_frames_{0}, bytes_in_{0}, bytes_out_{0};
};

} // namespace hs::net
