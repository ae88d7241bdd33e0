#include "tensor/rng.h"

#include <cmath>
#include <numbers>

namespace hs {
namespace {

// splitmix64: seeds the main stream with well-mixed state.
std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t s = seed;
    state_ = splitmix64(s);
    inc_ = splitmix64(s) | 1ULL; // stream selector must be odd
}

std::uint64_t Rng::next_u64() {
    // PCG-XSH-RR style step on 64-bit state (reduced-strength but ample
    // for simulation workloads and extremely fast).
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    std::uint64_t xorshifted = ((old >> 18u) ^ old) >> 27u;
    std::uint64_t rot = old >> 59u;
    std::uint64_t low = (xorshifted >> rot) | (xorshifted << ((-rot) & 63u));
    // Mix a second step into the high bits so all 64 are usable.
    std::uint64_t old2 = state_;
    state_ = old2 * 6364136223846793005ULL + inc_;
    std::uint64_t x2 = ((old2 >> 18u) ^ old2) >> 27u;
    return (low & 0xffffffffULL) | (x2 << 32);
}

double Rng::uniform() {
    // 53 random bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t n) {
    require(n > 0, "uniform_int needs n > 0");
    return static_cast<std::int64_t>(uniform() * static_cast<double>(n)) %
           n; // modulo guards the (measure-zero) u == 1 edge after rounding
}

double Rng::normal() {
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    // Box–Muller with rejection of u == 0.
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
    has_spare_ = true;
    return mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

void Rng::fill_normal(Tensor& t, double mean, double stddev) {
    for (float& v : t.data()) v = static_cast<float>(normal(mean, stddev));
}

void Rng::fill_uniform(Tensor& t, double lo, double hi) {
    for (float& v : t.data()) v = static_cast<float>(uniform(lo, hi));
}

void Rng::shuffle(std::vector<int>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(uniform_int(static_cast<std::int64_t>(i)));
        std::swap(values[i - 1], values[j]);
    }
}

Rng Rng::fork() { return Rng(next_u64()); }

} // namespace hs
