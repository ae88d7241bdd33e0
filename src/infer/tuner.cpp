#include "infer/tuner.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace hs::infer {
namespace {

/// Deterministic operand fill (xorshift; no global RNG state): weight
/// bytes span the full ±qmax range so saturation bugs in a candidate
/// kernel would corrupt the measurement run loudly, activation bytes
/// span all of u8.
void fill_operands(std::span<std::int8_t> a, std::span<std::uint8_t> b,
                   int qmax) {
    std::uint32_t s = 0x9e3779b9u;
    const auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        return s;
    };
    for (auto& v : a)
        v = static_cast<std::int8_t>(
            static_cast<int>(next() % (2 * static_cast<unsigned>(qmax) + 1)) -
            qmax);
    for (auto& v : b) v = static_cast<std::uint8_t>(next() & 0xffu);
}

} // namespace

Tuner::Tuner(TunerConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.target_batch < 1) cfg_.target_batch = 1;
}

std::vector<QGemmTactic> Tuner::candidates(int wbits, bool can_stack,
                                           int target_batch) {
    std::vector<QKernel> kernels;
    if (wbits == 8) {
        // Only full-range kernels may execute 8-bit weights exactly; the
        // scalar reference is a fallback, not a contender.
        kernels.push_back(QKernel::kVnni);
    } else {
        kernels.push_back(QKernel::kMaddubs);
        if (cpu_supports_vnni()) kernels.push_back(QKernel::kVnni);
    }
    const bool try_stack = can_stack && target_batch > 1;
    std::vector<QGemmTactic> out;
    for (const QKernel kern : kernels)
        for (const int ways : {1, 2, 4})
            for (const int stack : try_stack ? std::vector<int>{0, 1}
                                             : std::vector<int>{0}) {
                QGemmTactic t;
                t.kernel = kern;
                t.ways = static_cast<std::uint8_t>(ways);
                t.wbits = static_cast<std::uint8_t>(wbits);
                t.batch_stack = stack != 0;
                out.push_back(t);
            }
    return out;
}

double Tuner::measure_real(const QGemmTactic& t, int m, int n, int k) {
    // One batch's work: either target_batch narrow GEMMs or one stacked
    // wide GEMM — same MAC count, so the times compare directly.
    const int runs = t.batch_stack ? 1 : cfg_.target_batch;
    const std::int64_t n_eff =
        t.batch_stack ? static_cast<std::int64_t>(n) * cfg_.target_batch : n;
    const std::size_t a_sz =
        static_cast<std::size_t>(m) * static_cast<std::size_t>(k);
    const std::size_t b_sz = static_cast<std::size_t>(n_eff) *
                             static_cast<std::size_t>(k);
    const std::size_t c_sz = static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(n_eff);
    if (a_.size() < a_sz) a_.resize(a_sz);
    if (b_.size() < b_sz) b_.resize(b_sz);
    if (c_.size() < c_sz) c_.resize(c_sz);
    fill_operands({a_.data(), a_sz}, {b_.data(), b_sz},
                  t.wbits == 8 ? kWeightQMaxFull : kWeightQMax);

    double best_ns = 0.0;
    for (int rep = 0; rep <= kTunerReps; ++rep) {
        const std::int64_t t0 = monotonic_ns();
        for (int r = 0; r < runs; ++r)
            qgemm(t, m, static_cast<int>(n_eff), k, {a_.data(), a_sz},
                  {b_.data(), b_sz}, {c_.data(), c_sz});
        const auto ns = static_cast<double>(monotonic_ns() - t0);
        // rep 0 is the warmup (page faults, frequency ramp, pool spawn).
        if (rep == 1 || (rep > 1 && ns < best_ns)) best_ns = ns;
    }
    return best_ns / 1e6;
}

QGemmTactic Tuner::pick(std::int64_t m, std::int64_t n, std::int64_t k,
                        int wbits, bool can_stack) {
    for (const TunedShape& ts : table_)
        if (ts.m == m && ts.n == n && ts.k == k && ts.wbits == wbits &&
            ts.can_stack == can_stack)
            return ts.best;

    TunedShape ts;
    ts.m = m;
    ts.n = n;
    ts.k = k;
    ts.wbits = wbits;
    ts.can_stack = can_stack;
    bool have_best = false;
    for (const QGemmTactic& cand :
         candidates(wbits, can_stack, cfg_.target_batch)) {
        // Skip candidates this host would silently rewrite (e.g. VNNI
        // without hardware support): timing the fallback kernel under
        // the candidate's name would poison the table.
        QGemmTactic normalized = cand;
        if (normalize_tactic(normalized)) continue;
        const double ms =
            cfg_.measure
                ? cfg_.measure(cand, static_cast<int>(m),
                               static_cast<int>(n), static_cast<int>(k))
                : measure_real(cand, static_cast<int>(m),
                               static_cast<int>(n), static_cast<int>(k));
        ts.timings.push_back({cand, ms});
        // Strict less-than: ties resolve to the earlier candidate, so a
        // rerun over the same measurements commits the same tactic.
        if (!have_best || ms < ts.best_ms) {
            ts.best = cand;
            ts.best_ms = ms;
            have_best = true;
        }
    }
    if (!have_best) {
        // No applicable candidate (e.g. an 8-bit request on a host with
        // no full-range SIMD kernel): fall back to the exact scalar path.
        ts.best.kernel =
            wbits == 8 ? QKernel::kScalarRef : QKernel::kAuto;
        ts.best.wbits = static_cast<std::uint8_t>(wbits);
    }
    table_.push_back(ts);
    return table_.back().best;
}

} // namespace hs::infer
