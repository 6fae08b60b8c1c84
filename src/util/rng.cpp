#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace hdlock::util {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
    // An all-zero state would be a fixed point; SplitMix64 cannot produce
    // four zero outputs in a row, so no further check is needed.
}

Xoshiro256ss::result_type Xoshiro256ss::operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) noexcept {
    // Bitmask rejection: unbiased and free of 128-bit arithmetic. Expected
    // iterations < 2 for any bound.
    if (bound <= 1) return 0;
    const int width = 64 - std::countl_zero(bound - 1);
    const std::uint64_t mask = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (;;) {
        const std::uint64_t x = operator()() & mask;
        if (x < bound) return x;
    }
}

double Xoshiro256ss::next_double() noexcept {
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

double Xoshiro256ss::next_normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; u1 is kept away from zero so std::log stays finite.
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
    std::uint64_t hash = kFnvOffset;
    for (const std::byte b : bytes) {
        hash ^= static_cast<std::uint64_t>(b);
        hash *= kFnvPrime;
    }
    return hash;
}

static_assert(std::endian::native == std::endian::little,
              "fnv1a_of_small assumes each int's low byte comes first");

std::uint64_t fnv1a_of_small(std::span<const int> values) noexcept {
    constexpr std::uint64_t kPrime4 = kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;
    std::uint64_t hash = kFnvOffset;
    for (const int value : values) {
        hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(value));
        hash *= kPrime4;
    }
    return hash;
}

}  // namespace hdlock::util
