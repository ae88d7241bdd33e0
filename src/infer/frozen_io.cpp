#include "infer/frozen_io.h"

#include <cstdint>
#include <cstring>

#include "util/crc32.h"
#include "util/error.h"
#include "util/fsio.h"

namespace hs::infer {
namespace {

constexpr char kMagic[4] = {'H', 'S', 'W', 'T'};
constexpr std::uint32_t kVersion = 5;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;

void put_u8(std::string& out, std::uint8_t v) {
    out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
}

void put_f32(std::string& out, float v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out.append(buf, 4);
}

void put_shape(std::string& out, const Shape& shape) {
    put_u32(out, static_cast<std::uint32_t>(shape.size()));
    for (const int d : shape) put_u32(out, static_cast<std::uint32_t>(d));
}

void put_tensor(std::string& out, const Tensor& t) {
    put_shape(out, t.shape());
    const auto data = t.data();
    if (!data.empty())  // an empty tensor's data() is null
        out.append(reinterpret_cast<const char*>(data.data()),
                   data.size() * sizeof(float));
}

/// Bounds-checked cursor mirroring the v3 reader in nn/serialize.cpp:
/// `source` and the byte offset are woven into every error message.
class Reader {
public:
    Reader(const std::string& bytes, const std::string& source)
        : bytes_(bytes), source_(source) {}

    std::uint8_t u8() {
        std::uint8_t v = 0;
        read(&v, 1);
        return v;
    }
    std::uint32_t u32() {
        std::uint32_t v = 0;
        read(&v, 4);
        return v;
    }
    std::uint64_t u64() {
        std::uint64_t v = 0;
        read(&v, 8);
        return v;
    }
    float f32() {
        float v = 0.0f;
        read(&v, 4);
        return v;
    }
    void read(void* dst, std::size_t n) {
        require(pos_ + n <= bytes_.size(),
                "truncated frozen-model file " + where() + ": need " +
                    std::to_string(n) + " more bytes, " +
                    std::to_string(bytes_.size() - pos_) + " left of " +
                    std::to_string(bytes_.size()));
        // n == 0 reads come from empty tensors, whose data() is null —
        // memcpy requires non-null pointers even for zero sizes.
        if (n > 0) std::memcpy(dst, bytes_.data() + pos_, n);
        pos_ += n;
    }
    [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }
    [[nodiscard]] std::size_t pos() const { return pos_; }
    [[nodiscard]] std::string where() const {
        return "'" + source_ + "' at byte " + std::to_string(pos_);
    }

    Shape shape() {
        const std::uint32_t rank = u32();
        require(rank <= 8, "frozen-model file " + where() +
                               ": implausible shape rank " +
                               std::to_string(rank));
        Shape s(rank);
        for (std::uint32_t d = 0; d < rank; ++d)
            s[d] = static_cast<int>(u32());
        return s;
    }

    Tensor tensor() {
        Shape s = shape();
        const std::int64_t n = shape_numel(s);
        require(n >= 0 && static_cast<std::uint64_t>(n) * sizeof(float) <=
                              bytes_.size() - pos_,
                "truncated frozen-model file " + where() +
                    ": tensor data exceeds the file");
        Tensor t(std::move(s));
        auto data = t.data();
        read(data.data(), data.size() * sizeof(float));
        return t;
    }

private:
    const std::string& bytes_;
    const std::string& source_;
    std::size_t pos_ = 0;
};

} // namespace

std::string serialize_frozen(const FrozenModel& model) {
    std::string payload;
    put_u8(payload, model.precision == Precision::kInt8 ? 1 : 0);
    put_shape(payload, model.input_chw);
    put_shape(payload, model.output_shape);
    put_u32(payload, static_cast<std::uint32_t>(model.output_slot));
    for (const std::int64_t e : model.slot_elems)
        put_u64(payload, static_cast<std::uint64_t>(e));
    put_u64(payload, static_cast<std::uint64_t>(model.cols_elems));
    put_u64(payload, static_cast<std::uint64_t>(model.tr_elems));
    put_u64(payload, static_cast<std::uint64_t>(model.macs));

    put_u64(payload, model.ops.size());
    for (const FrozenOp& op : model.ops) {
        put_u8(payload, static_cast<std::uint8_t>(op.kind));
        put_u8(payload, op.relu_after ? 1 : 0);
        put_u8(payload, op.transposed ? 1 : 0);
        put_u32(payload, static_cast<std::uint32_t>(op.in));
        put_u32(payload, static_cast<std::uint32_t>(op.out));
        put_u32(payload, static_cast<std::uint32_t>(op.in2 + 1));
        put_u32(payload, static_cast<std::uint32_t>(op.out_channels));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.channels));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.height));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.width));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.kernel));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.stride));
        put_u32(payload, static_cast<std::uint32_t>(op.geom.pad));
        put_shape(payload, op.in_shape);
        put_shape(payload, op.out_shape);
        put_tensor(payload, op.bias);
        put_u8(payload, op.weight.numel() > 0 ? 1 : 0);
        if (op.weight.numel() > 0) put_tensor(payload, op.weight);
        put_u8(payload, op.qweight.empty() ? 0 : 1);
        if (!op.qweight.empty()) {
            put_u64(payload, op.qweight.size());
            payload.append(reinterpret_cast<const char*>(op.qweight.data()),
                           op.qweight.size());
            put_u32(payload, static_cast<std::uint32_t>(op.qscale.size()));
            for (const float s : op.qscale) put_f32(payload, s);
            put_f32(payload, op.in_scale);
            put_u8(payload, static_cast<std::uint8_t>(op.tactic.kernel));
            put_u8(payload, op.tactic.ways);
            put_u8(payload, op.tactic.wbits);
            put_u8(payload, op.tactic.batch_stack ? 1 : 0);
            put_u32(payload,
                    static_cast<std::uint32_t>(op.act_scales.size()));
            for (const float s : op.act_scales) put_f32(payload, s);
        }
    }

    std::string out;
    out.append(kMagic, 4);
    put_u32(out, kEndianTag);
    put_u32(out, kVersion);
    put_u32(out, crc32(payload));
    put_u64(out, payload.size());
    out.append(payload);
    return out;
}

FrozenModel deserialize_frozen(const std::string& bytes,
                               const std::string& source) {
    Reader reader(bytes, source);
    char magic[4];
    reader.read(magic, 4);
    require(std::memcmp(magic, kMagic, 4) == 0,
            "not a HeadStart weight file: '" + source + "'");

    const std::uint32_t tag = reader.u32();
    require(tag != kEndianTagSwapped,
            "frozen-model file endianness mismatch in '" + source +
                "': file was written on a host with the opposite byte order");
    require(tag == kEndianTag, "corrupt frozen-model file header in " +
                                   reader.where() + " (bad endian tag)");
    const std::uint32_t version = reader.u32();
    require(version != 3u,
            "'" + source +
                "' is a v3 training checkpoint, not a frozen model: load "
                "it with nn::load_parameters and freeze() the live graph");
    require(version != 4u,
            "unsupported frozen-model file version 4 in '" + source +
                "': re-freeze it with this build (v5 adds the per-op "
                "tactic and activation scales)");
    require(version == kVersion, "unsupported frozen-model file version " +
                                     std::to_string(version) + " in '" +
                                     source + "' (expected " +
                                     std::to_string(kVersion) + ")");

    const std::uint32_t stored_crc = reader.u32();
    const std::uint64_t payload_len = reader.u64();
    const std::size_t payload_start = reader.pos();
    require(payload_len <= bytes.size() - payload_start,
            "truncated frozen-model file " + reader.where() +
                ": header promises " + std::to_string(payload_len) +
                " payload bytes, file has " +
                std::to_string(bytes.size() - payload_start));
    require(payload_len == bytes.size() - payload_start,
            "trailing bytes in frozen-model file '" + source +
                "': payload is " + std::to_string(payload_len) +
                " bytes, file carries " +
                std::to_string(bytes.size() - payload_start));
    const std::uint32_t actual_crc =
        crc32(bytes.data() + payload_start, payload_len);
    require(actual_crc == stored_crc,
            "frozen-model file checksum mismatch in " + reader.where() +
                ": stored " + std::to_string(stored_crc) + ", computed " +
                std::to_string(actual_crc) +
                " — the file is corrupt (torn write or bit rot)");

    FrozenModel model;
    model.precision =
        reader.u8() == 1 ? Precision::kInt8 : Precision::kFloat32;
    model.input_chw = reader.shape();
    require(model.input_chw.size() == 3,
            "frozen-model file " + reader.where() +
                ": input shape must be [C, H, W]");
    model.input_elems = shape_numel(model.input_chw);
    model.output_shape = reader.shape();
    model.output_elems = shape_numel(model.output_shape);
    model.output_slot = static_cast<int>(reader.u32());
    require(model.output_slot >= 0 && model.output_slot < kNumSlots,
            "frozen-model file " + reader.where() +
                ": output slot out of range");
    for (auto& e : model.slot_elems)
        e = static_cast<std::int64_t>(reader.u64());
    model.cols_elems = static_cast<std::int64_t>(reader.u64());
    model.tr_elems = static_cast<std::int64_t>(reader.u64());
    model.macs = static_cast<std::int64_t>(reader.u64());

    const std::uint64_t op_count = reader.u64();
    model.ops.reserve(op_count);
    for (std::uint64_t i = 0; i < op_count; ++i) {
        FrozenOp op;
        const std::uint8_t kind = reader.u8();
        require(kind <= static_cast<std::uint8_t>(OpKind::kAdd),
                "frozen-model file " + reader.where() + ": unknown op kind " +
                    std::to_string(kind));
        op.kind = static_cast<OpKind>(kind);
        op.relu_after = reader.u8() != 0;
        op.transposed = reader.u8() != 0;
        op.in = static_cast<int>(reader.u32());
        op.out = static_cast<int>(reader.u32());
        op.in2 = static_cast<int>(reader.u32()) - 1;
        require(op.in >= 0 && op.in < kNumSlots && op.out >= 0 &&
                    op.out < kNumSlots && op.in2 >= -1 && op.in2 < kNumSlots,
                "frozen-model file " + reader.where() +
                    ": op slot index out of range");
        op.out_channels = static_cast<int>(reader.u32());
        op.geom.channels = static_cast<int>(reader.u32());
        op.geom.height = static_cast<int>(reader.u32());
        op.geom.width = static_cast<int>(reader.u32());
        op.geom.kernel = static_cast<int>(reader.u32());
        op.geom.stride = static_cast<int>(reader.u32());
        op.geom.pad = static_cast<int>(reader.u32());
        op.in_shape = reader.shape();
        op.out_shape = reader.shape();
        op.in_elems = shape_numel(op.in_shape);
        op.out_elems = shape_numel(op.out_shape);
        op.bias = reader.tensor();
        if (reader.u8() != 0) op.weight = reader.tensor();
        if (reader.u8() != 0) {
            const std::uint64_t qsize = reader.u64();
            require(qsize <= bytes.size() - reader.pos(),
                    "truncated frozen-model file " + reader.where() +
                        ": int8 weights exceed the file");
            op.qweight.resize(qsize);
            reader.read(op.qweight.data(), qsize);
            const std::uint32_t scales = reader.u32();
            require(scales == static_cast<std::uint32_t>(op.out_channels),
                    "frozen-model file " + reader.where() + ": " +
                        std::to_string(scales) +
                        " weight scales for an op with " +
                        std::to_string(op.out_channels) +
                        " output channels");
            op.qscale.resize(scales);
            reader.read(op.qscale.data(), scales * sizeof(float));
            op.in_scale = reader.f32();
            op.tactic.kernel = static_cast<QKernel>(reader.u8());
            op.tactic.ways = reader.u8();
            op.tactic.wbits = reader.u8();
            op.tactic.batch_stack = reader.u8() != 0;
            const std::uint32_t n_as = reader.u32();
            const auto chans = static_cast<std::uint32_t>(op.geom.channels);
            require(n_as <= 1 || (op.kind == OpKind::kConv && n_as == chans),
                    "frozen-model file " + reader.where() + ": " +
                        std::to_string(n_as) +
                        " activation scales for an op with " +
                        std::to_string(chans) + " input channels");
            op.act_scales.resize(n_as);
            reader.read(op.act_scales.data(), n_as * sizeof(float));
            // A tactic from a newer writer (unknown kernel id) or one
            // this host cannot execute exactly degrades to the
            // heuristic/scalar fallback instead of failing the load.
            normalize_tactic(op.tactic);
        }
        const bool needs_weights =
            op.kind == OpKind::kConv || op.kind == OpKind::kLinear;
        if (needs_weights)
            require((model.precision == Precision::kInt8 &&
                     !op.qweight.empty()) ||
                        (model.precision == Precision::kFloat32 &&
                         op.weight.numel() > 0),
                    "frozen-model file " + reader.where() +
                        ": op is missing the weights its precision needs");
        model.ops.push_back(std::move(op));
    }
    require(reader.exhausted(),
            "trailing bytes in frozen-model file " + reader.where());
    require(!model.ops.empty(),
            "frozen-model file '" + source + "' holds no ops");
    return model;
}

void save_frozen(const FrozenModel& model, const std::string& path) {
    atomic_write_file(path, serialize_frozen(model));
}

FrozenModel load_frozen(const std::string& path) {
    return deserialize_frozen(read_file(path), path);
}

} // namespace hs::infer
