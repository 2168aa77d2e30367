// Deterministic pseudo-random number generation.
//
// Every stochastic component in the codebase takes an explicit Rng (or a
// seed) so that simulations are exactly reproducible. The generator is
// xoshiro256**, which is fast, high quality, and lets us cheaply fork
// independent streams via Split().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seaweed {

// Mixes up to three words into one well-distributed 64-bit seed (splitmix64
// finalizer rounds). Used for counter-hash randomness: components that draw
// per-message randomness seed a local Rng with
// MixSeed(stream_seed, sender, sender_sequence) instead of sharing one
// generator, so draws are independent of event interleaving (and no
// generator has to be threaded through the callers).
inline uint64_t MixSeed(uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  uint64_t x = a;
  auto round = [&x](uint64_t add) {
    x += add + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  };
  round(b);
  round(c);
  return x;
}

class Rng {
 public:
  // Seeds the generator. Equal seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x5ea3eedULL);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  // Exponential with the given mean (mean = 1/rate). mean must be > 0.
  double Exponential(double mean);

  // Normal with the given mean and standard deviation (Box-Muller).
  double Normal(double mean, double stddev);

  // Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed durations).
  double Pareto(double scale, double shape);

  // Log-normal parameterized by the mean/stddev of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Zipf-distributed integer in [1, n] with exponent s (via rejection
  // sampling; accurate for s in (0.5, 3]).
  uint64_t Zipf(uint64_t n, double s);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Weights must be non-negative with a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Returns a new independent generator derived from this one's stream.
  Rng Split();

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace seaweed
