#pragma once

// ModelRegistry — versioned, refcounted FrozenModel handles for fleet
// serving, plus the hot-reload deployment pipeline (DESIGN.md §13).
//
// A registry entry is a named slot holding one immutable model snapshot
// (`shared_ptr<const FrozenModel>`) plus a monotonically increasing
// version. Readers (the serving workers, the TCP front-end) take a
// snapshot under a short mutex and then run entirely on the shared_ptr:
// an in-flight batch keeps the outgoing model alive through its refcount,
// so "drain the old engine" needs no coordination at all — the last
// worker to rebuild its per-model Engine drops the last reference and the
// old arenas free themselves.
//
// reload(name, path) is deployment as a first-class robust operation. It
// runs off the hot path (the caller's thread, never a serving worker) and
// pushes the candidate through a validation gauntlet before any request
// can see it:
//
//   read      load_frozen(path): v5 HSWT header + payload CRC-32 +
//             structural revalidation (a corrupt-but-CRC-valid file
//             cannot build an out-of-bounds plan)
//   validate  geometry must match the incumbent (input_chw,
//             output_shape) and precision must match unless the policy
//             allows a change; then an arena re-plan (building the canary
//             Engine exercises the exact allocation the serving workers
//             will do, and warms the candidate), and a golden-input
//             canary: `canary_inputs` seeded random images run through
//             the incumbent and the candidate, enforcing a minimum
//             argmax-agreement fraction and a maximum latency factor
//   swap      atomically publish the candidate (pointer swap + version
//             bump under the registry mutex)
//
// Any gauntlet failure rolls back automatically: the incumbent keeps
// serving untouched, the failure is counted (reload.rollback), and the
// flight recorder dumps the last moments (reason "reload_rollback_<stage>")
// so the bad deploy is diagnosable from disk. Fault sites reload.read /
// reload.validate / reload.swap let tests inject torn files, failed
// canaries, and mid-swap crashes; the swap site fires BEFORE publication,
// so an injected "crash" proves the swap is exception-safe (the incumbent
// survives).
//
// Observability: counters reload.attempts / reload.success /
// reload.rollback, gauge reload.active_version.<name> (the version a
// fleet dashboard alerts on).
//
// Concurrency: find()/list() take a short mutex and copy a snapshot out.
// reload()/swap_model() serialize against each other on a separate
// reload mutex (one deploy at a time) and never block readers during the
// gauntlet — only the final pointer swap touches the entry lock.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "infer/freeze.h"

namespace hs::infer {

/// Wire-facing model identifier: one byte in the frame header, dense in
/// add order, id 0 = the default model.
inline constexpr std::size_t kMaxModels = 256;

/// Snapshot of one registry entry. `model` keeps the snapshot alive no
/// matter how many reloads land after the copy.
struct ModelInfo {
    std::string name;
    std::uint8_t id = 0;
    std::int64_t version = 0;  ///< 1 on add, +1 per successful reload
    int weight = 1;            ///< scheduling weight (smooth WRR share)
    std::string path;          ///< source file of the active snapshot ("" = in-memory)
    std::shared_ptr<const FrozenModel> model;
};

/// Gauntlet thresholds for one reload. Defaults are deliberately
/// permissive on latency (cold-start jitter) and strict on agreement —
/// a re-pruned variant of the same network should agree on most inputs.
struct ReloadPolicy {
    int canary_inputs = 4;              ///< golden inputs per canary run
    double min_argmax_agreement = 0.75; ///< fraction of canaries that must agree
    double max_latency_factor = 25.0;   ///< candidate may be at most this much slower
    bool allow_precision_change = false; ///< permit fp32 <-> int8 swaps
    std::uint64_t canary_seed = 0x5eedULL; ///< deterministic golden inputs
};

/// Outcome of one reload/swap attempt. On failure the incumbent is
/// untouched and `stage` names the gauntlet stage that rejected the
/// candidate ("read" / "validate" / "swap").
struct ReloadResult {
    bool ok = false;
    std::string name;
    std::string stage;  ///< "read" | "validate" | "swap" | "ok"
    std::string error;  ///< diagnostic iff !ok
    std::int64_t old_version = 0;
    std::int64_t new_version = 0;  ///< == old_version when rolled back
    double canary_agreement = 0.0; ///< argmax agreement fraction measured
    double incumbent_canary_ms = 0.0; ///< mean canary latency, old model
    double candidate_canary_ms = 0.0; ///< mean canary latency, new model
    std::shared_ptr<const FrozenModel> model;  ///< active snapshot after the attempt
};

/// Reload volume counters (also exported as obs counters).
struct ReloadStats {
    std::int64_t attempts = 0;
    std::int64_t successes = 0;
    std::int64_t rollbacks = 0;
};

class ModelRegistry {
public:
    ModelRegistry() = default;
    ModelRegistry(const ModelRegistry&) = delete;
    ModelRegistry& operator=(const ModelRegistry&) = delete;

    /// Register a new named model; returns its wire id (dense, in add
    /// order; the first add is id 0 = the default model). Throws on a
    /// duplicate name, a null model, or a full registry.
    std::uint8_t add(const std::string& name,
                     std::shared_ptr<const FrozenModel> model, int weight = 1,
                     std::string source_path = {});

    [[nodiscard]] std::optional<ModelInfo> find(std::string_view name) const;
    [[nodiscard]] std::optional<ModelInfo> find_id(std::uint8_t id) const;
    /// All entries in id order.
    [[nodiscard]] std::vector<ModelInfo> list() const;
    [[nodiscard]] std::size_t size() const;

    /// Deploy: load a frozen file, run the gauntlet against the
    /// incumbent, swap atomically on success, roll back on any failure.
    /// Never throws for a failed candidate — the ReloadResult says why.
    ReloadResult reload(const std::string& name, const std::string& path,
                        const ReloadPolicy& policy = {});

    /// Same gauntlet for an already-in-memory candidate (tests, remote
    /// transports that ship serialized bytes).
    ReloadResult swap_model(const std::string& name,
                            std::shared_ptr<const FrozenModel> candidate,
                            const ReloadPolicy& policy = {},
                            const std::string& source_path = {});

    [[nodiscard]] ReloadStats reload_stats() const;

private:
    struct Entry {
        std::string name;
        std::uint8_t id = 0;
        std::int64_t version = 0;
        int weight = 1;
        std::string path;
        std::shared_ptr<const FrozenModel> model;
    };

    /// Gauntlet stages validate + swap (stage read is reload()-only).
    /// `result` arrives with name/old_version filled in.
    void gauntlet_and_swap(Entry* entry,
                           std::shared_ptr<const FrozenModel> candidate,
                           const ReloadPolicy& policy,
                           const std::string& source_path,
                           ReloadResult& result);
    void rollback(ReloadResult& result, const std::string& stage,
                  const std::string& error);

    mutable std::mutex mu_;       ///< guards entries_ and the counters
    std::mutex reload_mu_;        ///< serializes deploys (one at a time)
    std::vector<std::unique_ptr<Entry>> entries_;  ///< index == wire id
    std::int64_t attempts_ = 0;
    std::int64_t successes_ = 0;
    std::int64_t rollbacks_ = 0;
};

} // namespace hs::infer
