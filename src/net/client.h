#pragma once

// hs::net::Client — blocking client for the frame protocol, plus the
// Backoff policy that turns server NACK retry-after hints into actual
// waits. Two usage shapes:
//
//   * request/response: call() sends one request and blocks for its
//     response, retrying NACKed submissions with Backoff (the hint from
//     the server's EWMA admission control seeds the wait);
//   * pipelined: send() / recv_frame() are independent, so an open-loop
//     load generator can keep submitting at its arrival schedule while a
//     second thread drains responses (hsbench's load windows do exactly
//     this).
//
// Fleet serving: every request-shaped entry point takes a model id
// (default 0 = the server's default model); reload() and health() speak
// the v2 admin frames. A rolling server restart is invisible to call()
// users: on ECONNREFUSED/ECONNRESET/EOF it re-resolves, reconnects under
// Backoff, and resends the (idempotent) request — reconnect counts show
// up in stats(). send()/recv_frame()/call_once() stay raw and throw, so
// drain tests and pipelined load generators see the truth.
//
// One Client is one TCP connection and is NOT thread-safe as a whole;
// the supported concurrent split is exactly one sender thread using
// send() and one receiver thread using recv_frame() (they touch disjoint
// state: the socket is full-duplex).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace hs::net {

/// Exponential backoff seeded by server retry-after hints: the wait is
/// max(hint, base·2^attempt), capped. Replaces ad-hoc fixed-sleep retry
/// loops — honoring the hint means a loaded server sees retries arrive
/// roughly when it predicted capacity, not in synchronized bursts.
class Backoff {
public:
    explicit Backoff(std::int64_t base_us = 200,
                     std::int64_t cap_us = 500'000)
        : base_us_(base_us), cap_us_(cap_us) {}

    /// Wait for the next attempt, honoring `hint_us` (0 = no hint).
    [[nodiscard]] std::int64_t next_us(std::int64_t hint_us) {
        std::int64_t wait = base_us_ << std::min(attempt_, 16);
        ++attempt_;
        wait = std::max(wait, hint_us);
        return std::min(wait, cap_us_);
    }
    void reset() { attempt_ = 0; }
    [[nodiscard]] int attempts() const { return attempt_; }

private:
    std::int64_t base_us_;
    std::int64_t cap_us_;
    int attempt_ = 0;
};

/// Result of one logical request (after any retries).
struct CallResult {
    bool ok = false;
    std::vector<float> output;  ///< valid iff ok
    /// Last NACK observed when !ok.
    NackReason reason = NackReason::kBadRequest;
    std::uint64_t retry_after_us = 0;
    int retries = 0;  ///< NACK-triggered resubmissions performed
};

/// Per-connection client counters.
struct ClientStats {
    std::int64_t reconnects = 0;  ///< successful re-dials performed by call()
};

class Client {
public:
    Client() = default;
    ~Client() = default;
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&&) = default;
    Client& operator=(Client&&) = default;

    /// Connect (blocking); throws hs::Error on failure. Remembers the
    /// endpoint so call() can re-dial it across a server restart.
    void connect(const std::string& host, std::uint16_t port);
    [[nodiscard]] bool connected() const { return fd_.valid(); }
    void close() { fd_.reset(); }

    /// Send one request frame (blocking write). Returns the request id.
    std::uint64_t send(std::span<const float> input,
                       std::uint64_t deadline_us, bool int8_flag = false,
                       std::uint8_t model_id = 0);

    /// Block until one whole frame arrives. Throws hs::Error on EOF or a
    /// corrupt stream. Never reconnects — pipelined receivers must see
    /// the drop.
    [[nodiscard]] Frame recv_frame();

    /// Send one request and block for its response; no retries, no
    /// reconnects.
    [[nodiscard]] CallResult call_once(std::span<const float> input,
                                       std::uint64_t deadline_us,
                                       bool int8_flag = false,
                                       std::uint8_t model_id = 0);

    /// call_once() + Backoff retry loop on kQueueFull / kOverloaded /
    /// kShedDeadline NACKs (kBadRequest, kDraining and kUnknownModel are
    /// terminal — the server said "never" or "not any more", not "not
    /// yet"). A transport error (refused/reset/EOF — a server mid-restart)
    /// also consumes one retry: reconnect under the same Backoff, resend.
    [[nodiscard]] CallResult call(std::span<const float> input,
                                  std::uint64_t deadline_us,
                                  int max_retries, bool int8_flag = false,
                                  std::uint8_t model_id = 0);

    /// Admin: deploy `path` into registry slot `name` and block for the
    /// verdict (ok = swapped; !ok carries the rollback stage + reason).
    [[nodiscard]] AdminResponse reload(const std::string& name,
                                       const std::string& path);

    /// Admin: fleet health snapshot (JSON text from the server).
    [[nodiscard]] std::string health();

    [[nodiscard]] ClientStats stats() const { return stats_; }

private:
    /// Block for the admin response matching `id`, skipping stale
    /// pipelined frames; a NACK becomes an !ok AdminResponse.
    [[nodiscard]] AdminResponse recv_admin(std::uint64_t id);

    ScopedFd fd_;
    std::string host_;
    std::uint16_t port_ = 0;
    std::uint64_t next_id_ = 1;
    std::string rbuf_;
    ClientStats stats_;
};

} // namespace hs::net
