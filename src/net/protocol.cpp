#include "net/protocol.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"
#include "util/error.h"

namespace hs::net {
namespace {

// Little-endian scalar append/read. The repo targets little-endian hosts
// (the serializers already tag and reject foreign endianness); memcpy
// keeps the accesses alignment-safe either way.
template <typename T>
void put(std::string& out, T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

template <typename T>
T get(const char* p) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

} // namespace

std::vector<float> Frame::floats() const {
    std::vector<float> values(payload.size() / sizeof(float));
    std::memcpy(values.data(), payload.data(),
                values.size() * sizeof(float));
    return values;
}

const char* nack_reason_name(NackReason reason) {
    switch (reason) {
        case NackReason::kQueueFull: return "queue_full";
        case NackReason::kOverloaded: return "overloaded";
        case NackReason::kShedDeadline: return "shed_deadline";
        case NackReason::kDraining: return "draining";
        case NackReason::kBadRequest: return "bad_request";
        case NackReason::kUnknownModel: return "unknown_model";
    }
    return "unknown";
}

void append_frame(std::string& out, FrameType type, std::uint8_t flags,
                  std::uint64_t request_id, std::uint64_t deadline_us,
                  std::string_view payload, std::uint8_t model_id) {
    out.reserve(out.size() + kHeaderBytes + payload.size());
    put<std::uint32_t>(out, kMagic);
    put<std::uint8_t>(out, kProtocolVersion);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
    put<std::uint8_t>(out, flags);
    put<std::uint8_t>(out, model_id);
    put<std::uint64_t>(out, request_id);
    put<std::uint64_t>(out, deadline_us);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
    put<std::uint32_t>(out, crc32(payload));
    out.append(payload);
}

std::string encode_request(std::uint64_t request_id,
                           std::uint64_t deadline_us, bool int8_flag,
                           std::span<const float> input,
                           std::uint8_t model_id) {
    std::string out;
    append_frame(out, FrameType::kRequest,
                 int8_flag ? kFlagInt8 : std::uint8_t{0}, request_id,
                 deadline_us,
                 std::string_view(
                     reinterpret_cast<const char*>(input.data()),
                     input.size() * sizeof(float)),
                 model_id);
    return out;
}

std::string encode_response(std::uint64_t request_id, bool int8_flag,
                            std::span<const float> output,
                            std::uint8_t model_id) {
    std::string out;
    append_frame(out, FrameType::kResponse,
                 int8_flag ? kFlagInt8 : std::uint8_t{0}, request_id, 0,
                 std::string_view(
                     reinterpret_cast<const char*>(output.data()),
                     output.size() * sizeof(float)),
                 model_id);
    return out;
}

std::string encode_nack(std::uint64_t request_id, NackReason reason,
                        std::uint64_t retry_after_us) {
    std::string payload;
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(reason));
    put<std::uint16_t>(payload, 0);  // reserved
    put<std::uint64_t>(payload, retry_after_us);
    std::string out;
    append_frame(out, FrameType::kNack, 0, request_id, 0, payload);
    return out;
}

std::string encode_reload(std::uint64_t request_id, std::string_view name,
                          std::string_view path) {
    require(name.size() <= 0xFFFF && path.size() <= 0xFFFF,
            "encode_reload: name/path too long");
    std::string payload;
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(name.size()));
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(path.size()));
    payload.append(name);
    payload.append(path);
    std::string out;
    append_frame(out, FrameType::kReload, 0, request_id, 0, payload);
    return out;
}

std::string encode_health(std::uint64_t request_id) {
    std::string out;
    append_frame(out, FrameType::kHealth, 0, request_id, 0, {});
    return out;
}

std::string encode_admin_response(std::uint64_t request_id, bool ok,
                                  std::string_view text) {
    std::string payload;
    put<std::uint8_t>(payload, ok ? 1 : 0);
    put<std::uint8_t>(payload, 0);  // reserved
    payload.append(text);
    std::string out;
    append_frame(out, FrameType::kAdminResponse, 0, request_id, 0, payload);
    return out;
}

DecodeResult decode_frame(std::string_view buffer, Frame& out) {
    DecodeResult result;
    // Reject a wrong magic as soon as the first bytes disagree — a
    // desynchronized or hostile stream should not be able to stall a
    // reader at kNeedMore forever by trickling garbage.
    const std::size_t magic_avail = std::min<std::size_t>(buffer.size(), 4);
    for (std::size_t i = 0; i < magic_avail; ++i) {
        const char expect = static_cast<char>((kMagic >> (8 * i)) & 0xFF);
        if (buffer[i] != expect) {
            result.status = DecodeStatus::kBad;
            result.error = "bad magic at byte " + std::to_string(i);
            return result;
        }
    }
    if (buffer.size() < kHeaderBytes) return result;  // kNeedMore

    FrameHeader h;
    h.version = static_cast<std::uint8_t>(buffer[4]);
    const auto raw_type = static_cast<std::uint8_t>(buffer[5]);
    h.flags = static_cast<std::uint8_t>(buffer[6]);
    h.model_id = static_cast<std::uint8_t>(buffer[7]);
    h.request_id = get<std::uint64_t>(buffer.data() + 8);
    h.deadline_us = get<std::uint64_t>(buffer.data() + 16);
    h.payload_len = get<std::uint32_t>(buffer.data() + 24);
    h.payload_crc = get<std::uint32_t>(buffer.data() + 28);

    if (h.version != kProtocolVersion) {
        result.status = DecodeStatus::kBad;
        result.error = "unsupported protocol version " +
                       std::to_string(static_cast<int>(h.version)) +
                       " (this build speaks " +
                       std::to_string(static_cast<int>(kProtocolVersion)) +
                       ")";
        return result;
    }
    if (raw_type < static_cast<std::uint8_t>(FrameType::kRequest) ||
        raw_type > static_cast<std::uint8_t>(FrameType::kAdminResponse)) {
        result.status = DecodeStatus::kBad;
        result.error =
            "unknown frame type " + std::to_string(static_cast<int>(raw_type));
        return result;
    }
    h.type = static_cast<FrameType>(raw_type);
    if (h.payload_len > kMaxPayload) {
        result.status = DecodeStatus::kBad;
        result.error = "oversized payload length " +
                       std::to_string(h.payload_len) + " (cap " +
                       std::to_string(kMaxPayload) + ")";
        return result;
    }
    const std::size_t frame_bytes = kHeaderBytes + h.payload_len;
    if (buffer.size() < frame_bytes) return result;  // kNeedMore

    const std::string_view payload = buffer.substr(kHeaderBytes, h.payload_len);
    if (crc32(payload) != h.payload_crc) {
        result.status = DecodeStatus::kBad;
        result.error = "payload checksum mismatch on frame id " +
                       std::to_string(h.request_id);
        return result;
    }

    out.header = h;
    out.payload.assign(payload);
    result.status = DecodeStatus::kOk;
    result.consumed = frame_bytes;
    return result;
}

std::optional<Nack> parse_nack(const Frame& frame) {
    if (frame.header.type != FrameType::kNack || frame.payload.size() != 12)
        return std::nullopt;
    const std::uint16_t raw = get<std::uint16_t>(frame.payload.data());
    if (raw < static_cast<std::uint16_t>(NackReason::kQueueFull) ||
        raw > static_cast<std::uint16_t>(NackReason::kUnknownModel))
        return std::nullopt;
    Nack nack;
    nack.reason = static_cast<NackReason>(raw);
    nack.retry_after_us = get<std::uint64_t>(frame.payload.data() + 4);
    return nack;
}

std::optional<ReloadRequest> parse_reload(const Frame& frame) {
    if (frame.header.type != FrameType::kReload || frame.payload.size() < 4)
        return std::nullopt;
    const std::uint16_t name_len = get<std::uint16_t>(frame.payload.data());
    const std::uint16_t path_len =
        get<std::uint16_t>(frame.payload.data() + 2);
    if (frame.payload.size() !=
        4u + static_cast<std::size_t>(name_len) + path_len)
        return std::nullopt;
    ReloadRequest req;
    req.name = frame.payload.substr(4, name_len);
    req.path = frame.payload.substr(4u + name_len, path_len);
    if (req.name.empty()) return std::nullopt;
    return req;
}

std::optional<AdminResponse> parse_admin_response(const Frame& frame) {
    if (frame.header.type != FrameType::kAdminResponse ||
        frame.payload.size() < 2)
        return std::nullopt;
    AdminResponse resp;
    resp.ok = static_cast<std::uint8_t>(frame.payload[0]) != 0;
    resp.text = frame.payload.substr(2);
    return resp;
}

} // namespace hs::net
