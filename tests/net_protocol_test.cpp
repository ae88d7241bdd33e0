// Frame codec semantics: byte-exact round trips for every frame type,
// incremental decoding from a growing buffer, and a malformed-input fuzz
// suite mirroring the frozen_io pattern — truncated frames, bad magic,
// unsupported version/type, oversized length prefixes, and bit-flipped
// payloads must all be rejected (or held at kNeedMore) without ever
// producing a frame.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"

namespace hs::net {
namespace {

std::vector<float> ramp(std::size_t n) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = 0.25f * static_cast<float>(i) - 3.0f;
    return v;
}

TEST(NetProtocol, RequestRoundTrip) {
    const std::vector<float> input = ramp(48);
    const std::string bytes = encode_request(77, 2500, false, input);
    ASSERT_EQ(bytes.size(), kHeaderBytes + input.size() * sizeof(float));

    Frame frame;
    const DecodeResult res = decode_frame(bytes, frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(res.consumed, bytes.size());
    EXPECT_EQ(frame.header.type, FrameType::kRequest);
    EXPECT_EQ(frame.header.request_id, 77u);
    EXPECT_EQ(frame.header.deadline_us, 2500u);
    EXPECT_FALSE(frame.int8_flag());
    EXPECT_EQ(frame.floats(), input);
}

TEST(NetProtocol, ResponseAndNackRoundTrip) {
    const std::vector<float> output = ramp(10);
    Frame frame;
    auto res = decode_frame(encode_response(5, true, output), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.type, FrameType::kResponse);
    EXPECT_TRUE(frame.int8_flag());
    EXPECT_EQ(frame.floats(), output);
    EXPECT_FALSE(parse_nack(frame).has_value());

    res = decode_frame(encode_nack(9, NackReason::kOverloaded, 1234), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.type, FrameType::kNack);
    const auto nack = parse_nack(frame);
    ASSERT_TRUE(nack.has_value());
    EXPECT_EQ(nack->reason, NackReason::kOverloaded);
    EXPECT_EQ(nack->retry_after_us, 1234u);
}

TEST(NetProtocol, ZeroLengthPayloadIsValid) {
    Frame frame;
    const auto res =
        decode_frame(encode_request(1, 0, false, {}), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_TRUE(frame.payload.empty());
}

// Feeding the decoder byte by byte must answer kNeedMore at every prefix
// and decode exactly once at the full length — the invariant the
// non-blocking read loop relies on.
TEST(NetProtocol, IncrementalDecode) {
    const std::string bytes = encode_request(3, 100, false, ramp(16));
    std::string buffer;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        buffer.push_back(bytes[i]);
        const auto res = decode_frame(buffer, frame);
        ASSERT_EQ(res.status, DecodeStatus::kNeedMore)
            << "prefix of " << buffer.size() << " bytes";
    }
    buffer.push_back(bytes.back());
    EXPECT_EQ(decode_frame(buffer, frame).status, DecodeStatus::kOk);
}

TEST(NetProtocol, TwoFramesBackToBack) {
    std::string buffer = encode_request(1, 0, false, ramp(8));
    const std::size_t first = buffer.size();
    buffer += encode_nack(2, NackReason::kQueueFull, 55);

    Frame frame;
    auto res = decode_frame(buffer, frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(res.consumed, first);
    EXPECT_EQ(frame.header.request_id, 1u);
    buffer.erase(0, res.consumed);
    res = decode_frame(buffer, frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.request_id, 2u);
}

// Wrong magic fails fast — even before a whole header arrives — so a
// desynchronized stream cannot pin a reader at kNeedMore.
TEST(NetProtocol, BadMagicRejectedEarly) {
    Frame frame;
    EXPECT_EQ(decode_frame("XS", frame).status, DecodeStatus::kBad);
    std::string bytes = encode_request(1, 0, false, ramp(4));
    bytes[2] = 'x';
    const auto res = decode_frame(bytes, frame);
    EXPECT_EQ(res.status, DecodeStatus::kBad);
    EXPECT_NE(res.error.find("magic"), std::string::npos);
}

TEST(NetProtocol, UnsupportedVersionRejected) {
    std::string bytes = encode_request(1, 0, false, ramp(4));
    bytes[4] = kProtocolVersion + 1;  // future version
    Frame frame;
    const auto res = decode_frame(bytes, frame);
    EXPECT_EQ(res.status, DecodeStatus::kBad);
    EXPECT_NE(res.error.find("version"), std::string::npos);
}

TEST(NetProtocol, UnknownTypeRejected) {
    Frame frame;
    std::string bytes = encode_request(1, 0, false, ramp(4));
    bytes[5] = 9;  // not a FrameType
    EXPECT_EQ(decode_frame(bytes, frame).status, DecodeStatus::kBad);
}

// Every frame carries kProtocolVersion, and byte 7 is the model id.
TEST(NetProtocol, VersionAndModelIdRoundTrip) {
    Frame frame;
    const auto res =
        decode_frame(encode_request(7, 100, false, ramp(4), 3), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.version, kProtocolVersion);
    EXPECT_EQ(frame.header.model_id, 3);
}

// Only kProtocolVersion is spoken: a v1 frame (no model id, no admin
// frames) is a corrupt stream, whatever its type.
TEST(NetProtocol, V1FrameRejected) {
    Frame frame;
    for (std::string bytes : {encode_request(8, 0, false, ramp(4)),
                              encode_nack(8, NackReason::kBadRequest, 0)}) {
        bytes[4] = 1;
        const auto res = decode_frame(bytes, frame);
        EXPECT_EQ(res.status, DecodeStatus::kBad);
        EXPECT_NE(res.error.find("unsupported protocol version 1"),
                  std::string::npos)
            << res.error;
    }
}

TEST(NetProtocol, ReloadAndAdminRoundTrip) {
    Frame frame;
    auto res = decode_frame(encode_reload(40, "resnet", "/tmp/m.hswt"), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.type, FrameType::kReload);
    const auto req = parse_reload(frame);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->name, "resnet");
    EXPECT_EQ(req->path, "/tmp/m.hswt");

    // Truncated / length-mangled reload payloads parse as "no request".
    Frame bad = frame;
    bad.payload.resize(3);
    EXPECT_FALSE(parse_reload(bad).has_value());
    bad = frame;
    bad.payload[0] = static_cast<char>(200);  // name_len lies
    EXPECT_FALSE(parse_reload(bad).has_value());
    res = decode_frame(encode_reload(41, "m", ""), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_TRUE(parse_reload(frame).has_value());  // empty path is legal

    res = decode_frame(encode_health(42), frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(frame.header.type, FrameType::kHealth);
    EXPECT_TRUE(frame.payload.empty());

    res = decode_frame(
        encode_admin_response(42, false, "rolled back at stage 'read'"),
        frame);
    ASSERT_EQ(res.status, DecodeStatus::kOk);
    const auto resp = parse_admin_response(frame);
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->text, "rolled back at stage 'read'");
}

// An attacker-controlled length prefix must not drive allocation: any
// length beyond the cap is malformed even though the payload never
// arrives.
TEST(NetProtocol, OversizedLengthPrefixRejected) {
    std::string bytes = encode_request(1, 0, false, ramp(4));
    const std::uint32_t huge = kMaxPayload + 1;
    std::memcpy(bytes.data() + 24, &huge, sizeof(huge));
    Frame frame;
    const auto res = decode_frame(bytes, frame);
    EXPECT_EQ(res.status, DecodeStatus::kBad);
    EXPECT_NE(res.error.find("oversized"), std::string::npos);
}

// Truncation fuzz (frozen_io pattern): every cut of a valid frame is
// kNeedMore — never kOk, never a crash — because a short prefix is
// indistinguishable from a slow sender.
TEST(NetProtocol, TruncationFuzzNeverYieldsAFrame) {
    const std::string bytes = encode_request(11, 400, false, ramp(32));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        Frame frame;
        const auto res = decode_frame(bytes.substr(0, cut), frame);
        ASSERT_EQ(res.status, DecodeStatus::kNeedMore) << "cut " << cut;
    }
}

// Bit-flip fuzz: every single-bit flip in the payload region must be
// caught by the CRC; flips in the stored CRC itself likewise.
TEST(NetProtocol, PayloadBitFlipFuzzRejectedByCrc) {
    const std::string bytes = encode_request(21, 0, false, ramp(64));
    std::vector<std::size_t> offsets{28, 29, 30, 31};  // the stored CRC
    for (std::size_t off = kHeaderBytes; off < bytes.size();
         off += bytes.size() / 23 + 1)
        offsets.push_back(off);
    for (const std::size_t off : offsets) {
        std::string damaged = bytes;
        damaged[off] = static_cast<char>(damaged[off] ^ 0x10);
        Frame frame;
        const auto res = decode_frame(damaged, frame);
        EXPECT_EQ(res.status, DecodeStatus::kBad) << "flip at " << off;
        EXPECT_NE(res.error.find("checksum"), std::string::npos)
            << "flip at " << off << ": " << res.error;
    }
}

TEST(NetProtocol, MalformedNackPayloadRejected) {
    // A NACK whose payload is the wrong size or carries an unknown reason
    // parses as "no nack" rather than garbage.
    Frame frame;
    frame.header.type = FrameType::kNack;
    frame.payload = "abc";  // wrong size
    EXPECT_FALSE(parse_nack(frame).has_value());

    const std::string bytes = encode_nack(1, NackReason::kDraining, 0);
    ASSERT_EQ(decode_frame(bytes, frame).status, DecodeStatus::kOk);
    frame.payload[0] = 99;  // unknown reason code
    frame.payload[1] = 0;
    EXPECT_FALSE(parse_nack(frame).has_value());
}

TEST(NetProtocol, NackReasonNamesAreStable) {
    EXPECT_STREQ(nack_reason_name(NackReason::kQueueFull), "queue_full");
    EXPECT_STREQ(nack_reason_name(NackReason::kOverloaded), "overloaded");
    EXPECT_STREQ(nack_reason_name(NackReason::kShedDeadline),
                 "shed_deadline");
    EXPECT_STREQ(nack_reason_name(NackReason::kDraining), "draining");
    EXPECT_STREQ(nack_reason_name(NackReason::kBadRequest), "bad_request");
    EXPECT_STREQ(nack_reason_name(NackReason::kUnknownModel),
                 "unknown_model");
}

} // namespace
} // namespace hs::net
