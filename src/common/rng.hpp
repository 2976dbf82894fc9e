// Deterministic pseudo-random number generation.
//
// All stochastic components (graph generators, random partitioners, workload
// builders) take an explicit Rng so that every experiment is reproducible from
// a single seed. The engine itself is fully deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace aa {

/// xoshiro256** with splitmix64 seeding. Satisfies
/// std::uniform_random_bit_generator.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

    void reseed(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~std::uint64_t{0}; }

    result_type operator()() {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint64_t uniform(std::uint64_t bound);

    /// Uniform double in [0, 1).
    double uniform01() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

    /// Bernoulli trial with success probability p.
    bool chance(double p) { return uniform01() < p; }

    /// In-place Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            using std::swap;
            swap(items[i - 1], items[uniform(i)]);
        }
    }

    /// Derive an independent child stream (for per-component seeding).
    Rng fork() { return Rng((*this)() ^ 0xA3EC647659359ACDull); }

    /// The raw generator state (checkpointing): set_state(state()) resumes
    /// the stream exactly where it was. The all-zero state is degenerate
    /// (the generator would emit zeros forever) and must not be set.
    std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
    void set_state(const std::array<std::uint64_t, 4>& state) {
        AA_ASSERT(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0);
        for (std::size_t i = 0; i < 4; ++i) {
            s_[i] = state[i];
        }
    }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4]{};
};

}  // namespace aa
