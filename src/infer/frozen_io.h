#pragma once

// Frozen-plan serialization: ship a compiled FrozenModel — fp32 or int8 —
// to a serving host that never builds the live layer graph. This is v5 of
// the "HSWT" container (serialize.h documents v3, the training
// checkpoint): same header discipline (magic, endian canary, version,
// payload CRC-32, atomic temp+fsync+rename writes, path+byte-offset error
// messages), different payload:
//
//   magic "HSWT" | u32 endian tag 0x01020304 | u32 version (= 5)
//   u32 crc32(payload) | u64 payload_len | payload
//   payload = u8 precision | input_chw | output_shape | u32 output_slot
//           | u64 slot_elems[3] | u64 cols_elems | u64 tr_elems | u64 macs
//           | u64 op_count | per op:
//               u8 kind | u8 relu_after | u8 transposed
//               | u32 in | u32 out | u32 in2+1 | u32 out_channels
//               | u32 geom{channels,height,width,kernel,stride,pad}
//               | in_shape | out_shape | bias tensor | optional f32 weight
//               | optional int8 block (qweight bytes, per-channel scales,
//                 activation scale,
//                 u8 tactic{kernel,ways,wbits,batch_stack}
//                 | u32 act_scale_count | f32 act_scales)
//
// Tactics whose kernel id is unknown (a newer writer) or not executable
// on this host degrade via normalize_tactic() to the heuristic/scalar
// fallback instead of failing the load.
//
// Shapes are u32 rank + u32 dims; tensors are a shape + f32 data. A v3
// file handed to load_frozen() (or a frozen file handed to
// load_parameters()) is rejected with a message naming the right API,
// not a cryptic mismatch; a pre-tuner v4 frozen file is rejected with a
// "re-freeze it with this build" error. Loading revalidates structure
// (op kinds, slot indices, geometry/shape agreement, activation-scale
// counts) so a corrupt-but-CRC-valid file cannot build an out-of-bounds
// plan.

#include <string>

#include "infer/freeze.h"

namespace hs::infer {

/// Serialize `model` to `path` atomically (the previous file survives any
/// failure). Throws hs::Error on I/O failure.
void save_frozen(const FrozenModel& model, const std::string& path);

/// Load a FrozenModel saved by save_frozen(). Throws hs::Error on I/O
/// failure, format corruption (bad CRC, truncation), or structural
/// inconsistency.
[[nodiscard]] FrozenModel load_frozen(const std::string& path);

/// In-memory round trip helpers (tests, remote transports). `source`
/// labels the byte stream in error messages.
[[nodiscard]] std::string serialize_frozen(const FrozenModel& model);
[[nodiscard]] FrozenModel deserialize_frozen(
    const std::string& bytes, const std::string& source = "<memory>");

} // namespace hs::infer
