#pragma once

// Deterministic random number generation. Every stochastic component in
// the library (weight init, data synthesis, Bernoulli action sampling,
// dropout of residual blocks, ...) draws from an explicitly seeded Rng so
// whole experiments are reproducible bit-for-bit.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hs {

/// Seeded pseudo-random generator (xoshiro-style via std::mt19937_64
/// would drag <random> into every header; we use a small PCG64 variant
/// implemented locally for speed and header hygiene).
class Rng {
public:
    /// Construct with the given seed; equal seeds give equal streams.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /// Next raw 64-bit value.
    [[nodiscard]] std::uint64_t next_u64();

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform();

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);

    /// Uniform integer in [0, n) for n > 0.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t n);

    /// Standard normal variate (Box–Muller, cached spare).
    [[nodiscard]] double normal();

    /// Normal with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev);

    /// Bernoulli draw with success probability p (clamped to [0,1]).
    [[nodiscard]] bool bernoulli(double p);

    /// Fill `t` with N(mean, stddev) variates.
    void fill_normal(Tensor& t, double mean, double stddev);

    /// Fill `t` with U[lo, hi) variates.
    void fill_uniform(Tensor& t, double lo, double hi);

    /// Fisher–Yates shuffle of an index vector.
    void shuffle(std::vector<int>& values);

    /// Fork an independent child stream (stable: derived from the parent's
    /// current state, advances the parent once).
    [[nodiscard]] Rng fork();

private:
    std::uint64_t state_;
    std::uint64_t inc_;
    double spare_ = 0.0;
    bool has_spare_ = false;
};

} // namespace hs
