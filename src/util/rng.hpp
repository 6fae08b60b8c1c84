#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random generation.
///
/// All randomness in the library flows through Xoshiro256ss seeded explicitly
/// by the caller, so every experiment in the paper reproduction is exactly
/// repeatable.  std::mt19937 / std::uniform_int_distribution are avoided on
/// purpose: their outputs are not guaranteed identical across standard
/// library implementations, which would make recorded experiment outputs
/// platform-dependent.

#include <array>
#include <cstdint>
#include <span>
#include <utility>

namespace hdlock::util {

/// SplitMix64 — used to expand a single 64-bit seed into a full state.
/// Reference: Sebastiano Vigna, http://prng.di.unimi.it/splitmix64.c
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// xoshiro256** 1.0 — the library-wide PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256ss {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256ss(std::uint64_t seed) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    result_type operator()() noexcept;

    /// Unbiased uniform integer in [0, bound). Requires bound > 0.
    std::uint64_t next_below(std::uint64_t bound) noexcept;

    /// Uniform double in [0, 1).
    double next_double() noexcept;

    /// Standard normal deviate (Box-Muller, one value cached).
    double next_normal() noexcept;

    /// Normal deviate with the given mean / standard deviation.
    double next_normal(double mean, double stddev) noexcept { return mean + stddev * next_normal(); }

    /// Bernoulli draw with success probability p.
    bool next_bool(double p = 0.5) noexcept { return next_double() < p; }

    /// +1 with probability 1/2, otherwise -1.
    int next_sign() noexcept { return (operator()() & 1u) != 0 ? 1 : -1; }

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::span<T> values) noexcept {
        for (std::size_t i = values.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next_below(i));
            using std::swap;
            swap(values[i - 1], values[j]);
        }
    }

private:
    std::array<std::uint64_t, 4> state_{};
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

/// FNV-1a over arbitrary bytes; used to derive per-input tie-break seeds so
/// that encoding is a deterministic function of its input (see
/// RecordEncoder::encode on sign(0) handling).
std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// Convenience overload hashing a span of trivially copyable values.
template <typename T>
std::uint64_t fnv1a_of(std::span<const T> values) noexcept {
    return fnv1a(std::as_bytes(values));
}

/// fnv1a_of(values) when every value lies in [0, 256), at a four-byte
/// stride: each little-endian int's three high bytes are then zero, so the
/// byte loop's four xor-multiply steps per value reduce to one xor and one
/// multiply by the FNV prime to the fourth power (mod 2^64).  A quarter of
/// the dependent multiplies; values outside [0, 256) hash differently.
std::uint64_t fnv1a_of_small(std::span<const int> values) noexcept;

/// Mixes two 64-bit values into one (order-sensitive).
constexpr std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace hdlock::util
