#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace mdo {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MDO_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection-free bounded draw with rejection fallback to
  // remove modulo bias.
  const std::uint64_t threshold = (0 - span) % span;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % span);
  }
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  // Box–Muller; draws two uniforms each call.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  MDO_REQUIRE(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  MDO_REQUIRE(rate > 0.0, "exponential rate must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::int64_t Rng::poisson(double mean) {
  MDO_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // workload magnitudes used in the simulator.
  const double draw = normal(mean, std::sqrt(mean));
  return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  MDO_REQUIRE(!weights.empty(), "categorical requires at least one weight");
  double total = 0.0;
  for (const double w : weights) {
    MDO_REQUIRE(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  MDO_REQUIRE(total > 0.0, "categorical weights must have positive sum");
  const double target = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;  // numerical slack: return last bucket
}

Rng Rng::fork() { return Rng((*this)()); }

void Rng::set_state(const State& state) {
  bool all_zero = true;
  for (const auto word : state.words) all_zero = all_zero && word == 0;
  MDO_REQUIRE(!all_zero, "xoshiro256** state must not be all-zero");
  state_ = state.words;
}

Rng::Rng(const State& state) { set_state(state); }

}  // namespace mdo
