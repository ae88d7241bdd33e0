#pragma once

// hs::net wire protocol: compact length-prefixed binary frames carrying
// inference requests, responses, and typed rejections (NACKs) over a TCP
// stream. The codec here is pure byte manipulation — no sockets — so the
// same functions back the server, the client library, and the fuzz tests.
//
// Frame layout (all integers little-endian):
//
//   offset size field
//        0    4 magic        "HSN1" (0x48 0x53 0x4E 0x31 on the wire)
//        4    1 version      kProtocolVersion (2)
//        5    1 type         FrameType (request / response / nack / admin)
//        6    1 flags        bit 0: int8 precision requested/served
//        7    1 model_id     registry wire id (0 = default model)
//        8    8 request_id   caller-chosen correlation id, echoed back
//       16    8 deadline_us  request budget from send, µs; 0 = none
//       24    4 payload_len  bytes following the header (≤ kMaxPayload)
//       28    4 payload_crc  CRC-32 (IEEE) of the payload bytes
//       32    … payload
//
// Payloads:
//   * kRequest        raw fp32 input tensor (input_elems floats)
//   * kResponse       raw fp32 output tensor (output_elems floats)
//   * kNack           NackReason (u16) + reserved (u16) + retry_after_us (u64)
//   * kReload         u16 name_len + u16 path_len + name + path (admin)
//   * kHealth         empty (admin)
//   * kAdminResponse  u8 ok + u8 reserved + UTF-8 text (result / health json)
//
// Versioning: every encoder writes kProtocolVersion and decoders accept
// only that version; any other version byte (including v1, which had no
// model id and no admin frames) is a kBad decode — the server answers it
// with a kBadRequest NACK and closes. Bump kProtocolVersion for any
// layout change.
//
// The header CRC guards the tensor bytes end to end (a serving host
// should never run inference on a bit-flipped image); length is bounded
// by kMaxPayload so a corrupt prefix cannot make a reader allocate
// gigabytes. decode_frame() is incremental: feed it a growing buffer and
// it answers kNeedMore until one whole frame is present, which is exactly
// the shape a non-blocking read loop wants.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hs::net {

/// "HSN1" read as a little-endian u32 (so the wire bytes spell it out).
inline constexpr std::uint32_t kMagic = 0x314E5348u;
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderBytes = 32;
/// Hard cap on payload_len: a frame longer than this is malformed, not
/// merely large — readers must reject it without buffering it.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

/// Frame flag bits.
inline constexpr std::uint8_t kFlagInt8 = 0x01;

enum class FrameType : std::uint8_t {
    kRequest = 1,
    kResponse = 2,
    kNack = 3,
    // Admin frames: deployment and introspection on the same
    // connection — no side-channel port to firewall separately.
    kReload = 4,         ///< client -> server: reload a named model
    kHealth = 5,         ///< client -> server: fleet health snapshot
    kAdminResponse = 6,  ///< server -> client: reload/health result
};

/// Typed rejection reasons carried by NACK frames. The first three mirror
/// the ServingEngine surface (admission verdicts + queue shedding); the
/// rest are transport-level.
enum class NackReason : std::uint16_t {
    kQueueFull = 1,     ///< bounded queue at capacity (retry after hint)
    kOverloaded = 2,    ///< EWMA admission control predicts a miss
    kShedDeadline = 3,  ///< accepted, but the deadline expired in queue
    kDraining = 4,      ///< server shutting down (SIGTERM drain)
    kBadRequest = 5,    ///< malformed frame / wrong tensor shape
    kUnknownModel = 6,  ///< model_id not in the server's registry
};

/// Decoded fixed-size frame header.
struct FrameHeader {
    std::uint8_t version = kProtocolVersion;
    FrameType type = FrameType::kRequest;
    std::uint8_t flags = 0;
    /// Registry wire id of the target model (0 = the default model).
    std::uint8_t model_id = 0;
    std::uint64_t request_id = 0;
    std::uint64_t deadline_us = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;
};

/// One complete decoded frame (header + owned payload bytes).
struct Frame {
    FrameHeader header;
    std::string payload;

    [[nodiscard]] bool int8_flag() const {
        return (header.flags & kFlagInt8) != 0;
    }
    /// Payload reinterpreted as fp32 values (request/response frames).
    [[nodiscard]] std::size_t num_floats() const {
        return payload.size() / sizeof(float);
    }
    /// Copy the payload out as floats (byte-exact, alignment-safe).
    [[nodiscard]] std::vector<float> floats() const;
};

/// NACK payload.
struct Nack {
    NackReason reason = NackReason::kBadRequest;
    std::uint64_t retry_after_us = 0;
};

/// kReload payload: deploy `path` into the registry slot `name`.
struct ReloadRequest {
    std::string name;
    std::string path;
};

/// kAdminResponse payload: outcome flag plus human/JSON text (the reload
/// verdict line, or the health snapshot).
struct AdminResponse {
    bool ok = false;
    std::string text;
};

/// Stable display name of a NACK reason ("queue_full", ...).
[[nodiscard]] const char* nack_reason_name(NackReason reason);

// --- Encoding -----------------------------------------------------------

/// Append one frame (header + payload) to `out`.
void append_frame(std::string& out, FrameType type, std::uint8_t flags,
                  std::uint64_t request_id, std::uint64_t deadline_us,
                  std::string_view payload, std::uint8_t model_id = 0);

[[nodiscard]] std::string encode_request(std::uint64_t request_id,
                                         std::uint64_t deadline_us,
                                         bool int8_flag,
                                         std::span<const float> input,
                                         std::uint8_t model_id = 0);
[[nodiscard]] std::string encode_response(std::uint64_t request_id,
                                          bool int8_flag,
                                          std::span<const float> output,
                                          std::uint8_t model_id = 0);
[[nodiscard]] std::string encode_nack(std::uint64_t request_id,
                                      NackReason reason,
                                      std::uint64_t retry_after_us);
[[nodiscard]] std::string encode_reload(std::uint64_t request_id,
                                        std::string_view name,
                                        std::string_view path);
[[nodiscard]] std::string encode_health(std::uint64_t request_id);
[[nodiscard]] std::string encode_admin_response(std::uint64_t request_id,
                                                bool ok,
                                                std::string_view text);

// --- Decoding -----------------------------------------------------------

enum class DecodeStatus {
    kOk,        ///< one frame decoded; `consumed` bytes may be dropped
    kNeedMore,  ///< prefix is valid but incomplete — read more bytes
    kBad,       ///< stream is corrupt; the connection should be closed
};

struct DecodeResult {
    DecodeStatus status = DecodeStatus::kNeedMore;
    std::size_t consumed = 0;  ///< set iff kOk
    std::string error;         ///< set iff kBad
};

/// Try to decode one frame from the front of `buffer`. Incremental:
/// returns kNeedMore on any valid-but-short prefix (including an empty
/// buffer), kBad as soon as the prefix can never become a valid frame
/// (wrong magic/version/type, oversized length, payload CRC mismatch).
[[nodiscard]] DecodeResult decode_frame(std::string_view buffer, Frame& out);

/// Interpret a decoded kNack frame's payload; nullopt if malformed.
[[nodiscard]] std::optional<Nack> parse_nack(const Frame& frame);

/// Interpret a decoded kReload frame's payload; nullopt if malformed.
[[nodiscard]] std::optional<ReloadRequest> parse_reload(const Frame& frame);

/// Interpret a decoded kAdminResponse frame's payload; nullopt if
/// malformed.
[[nodiscard]] std::optional<AdminResponse> parse_admin_response(
    const Frame& frame);

} // namespace hs::net
