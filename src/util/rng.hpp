// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator (workload draws, prediction
// noise, tie-breaking) pulls randomness from an explicitly seeded Rng so
// that each experiment in EXPERIMENTS.md is bit-for-bit reproducible.
// The generator is xoshiro256**, seeded via splitmix64 per the authors'
// recommendation; it is small, fast, and has no global state.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace mdo {

/// splitmix64 step; used to expand a single 64-bit seed into a full state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions, although the built-in helpers below are preferred for
/// reproducibility across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from a single value (default seed 42).
  explicit Rng(std::uint64_t seed = 42);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value. The step and the two uniforms below are
  /// inline: the predictor steps two streams once per (SBS, content), and
  /// an out-of-line call costs about twice the step itself.
  result_type operator()() {
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

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high-quality mantissa bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    MDO_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (> 0).
  double exponential(double rate);

  /// Poisson draw with the given mean (Knuth for small, normal approx large).
  std::int64_t poisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for parallel components).
  Rng fork();

  /// Complete serializable stream state. normal() deliberately caches no
  /// Box–Muller spare, so the four engine words below are the *entire*
  /// stream state by construction: restoring them resumes the sequence
  /// exactly, even mid-way through paired-draw distributions. (A cached
  /// spare would have to be part of this struct; keeping normal()
  /// spare-free is what makes save/restore this simple and is a frozen
  /// contract — see the determinism regression tests.)
  struct State {
    std::array<std::uint64_t, 4> words{};
  };

  /// Snapshot of the current stream position.
  State state() const { return State{state_}; }

  /// Resumes a previously saved stream position. Rejects the all-zero
  /// state, which is invalid for xoshiro256** (the generator would emit
  /// zeros forever).
  void set_state(const State& state);

  /// Constructs directly at a saved stream position.
  explicit Rng(const State& state);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mdo
