#pragma once

// Freeze-time kernel autotuner (DESIGN.md §14). quantize() hands every
// conv/FC GEMM shape to a Tuner, which times each applicable tactic from
// the catalog in tensor/gemm_int8.h — inner kernel (maddubs vs VNNI),
// intra-op row partitioning (1/2/4-way TaskPool fan-out), and, for
// convs, batch-stacked vs per-image execution — on synthetic operands,
// and commits the fastest into the frozen plan (HSWT v5). This is the
// measure-then-commit tactic selection TensorRT's builder and
// AutoTVM-style tuners use: dispatch decisions are evidence from this
// machine, not hardcoded heuristics.
//
// Applicability is contract-driven: an 8-bit weight plan (wbits == 8)
// only races kernels that accumulate the full s8 range exactly (VNNI);
// a 7-bit plan races the maddubs path against VNNI (a full-range kernel
// runs reduced-range weights fine). The scalar reference is never timed
// — it exists as the correctness oracle and load-time fallback.
//
// Determinism: selection iterates a fixed candidate order and replaces
// the incumbent only on strictly smaller cost, so equal measurements
// resolve identically. Tests (and any caller that wants reproducible
// tables) inject a measurement hook via TunerConfig::measure; production
// uses the real clock over best-of-kTunerReps runs. Results are cached per
// (m, n, k, wbits, can_stack), so identical layer shapes share one
// measurement and always one tactic.

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/gemm_int8.h"

namespace hs::infer {

/// Timed repetitions per candidate (after one warm-up run); the best
/// (minimum) wall time wins, which rejects scheduler noise better than
/// the mean.
inline constexpr int kTunerReps = 3;

struct TunerConfig {
    /// Serving batch size the plan is tuned for: batch-stacked conv
    /// candidates (and linear GEMM widths) are evaluated at this batch.
    int target_batch = 1;
    /// Measurement hook: cost (ms, lower is better) of executing one
    /// batch with tactic `t` on a per-image m×n×k GEMM (t.batch_stack
    /// and target_batch describe how the batch is shaped). Null uses
    /// real wall-clock timing of the actual kernels.
    std::function<double(const QGemmTactic& t, int m, int n, int k)> measure;
};

/// One timed candidate (per-batch cost in ms).
struct TacticTiming {
    QGemmTactic tactic;
    double ms = 0.0;
};

/// The tuning record of one GEMM shape: every candidate's measurement
/// plus the committed winner. Exposed for bench reporting and tests.
struct TunedShape {
    std::int64_t m = 0, n = 0, k = 0;
    int wbits = 7;
    bool can_stack = false;
    QGemmTactic best;
    double best_ms = 0.0;
    std::vector<TacticTiming> timings;
};

class Tuner {
public:
    explicit Tuner(TunerConfig cfg = {});

    /// Fastest applicable tactic for a per-image GEMM C(m×n) =
    /// A(m×k)·Bᵀ(n×k) quantized to `wbits`-bit weights. `can_stack` is
    /// true for convs (patch rows may stack across the batch); linears
    /// pass false and an `n` that already spans the batch. Cached: the
    /// same shape asks the clock once.
    QGemmTactic pick(std::int64_t m, std::int64_t n, std::int64_t k,
                     int wbits, bool can_stack);

    /// Candidate tactics for a shape class, in the fixed selection order.
    static std::vector<QGemmTactic> candidates(int wbits, bool can_stack,
                                               int target_batch);

    [[nodiscard]] const std::vector<TunedShape>& table() const {
        return table_;
    }
    [[nodiscard]] const TunerConfig& config() const { return cfg_; }

private:
    double measure_real(const QGemmTactic& t, int m, int n, int k);

    TunerConfig cfg_;
    std::vector<TunedShape> table_;
    // Synthetic operand scratch, reused across candidates and shapes so
    // tuning a whole model allocates a handful of times, not per run.
    std::vector<std::int8_t> a_;
    std::vector<std::uint8_t> b_;
    std::vector<std::int32_t> c_;
};

} // namespace hs::infer
