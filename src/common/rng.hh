/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the reproduction (graph generators, weight
 * init, dropout, dataset splits) draws from this xoshiro256** generator so
 * that runs are bit-exact across machines and build modes. std::mt19937 is
 * avoided because libstdc++'s distribution implementations are not
 * guaranteed stable across versions.
 */

#ifndef MAXK_COMMON_RNG_HH
#define MAXK_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace maxk
{

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain reference
 * implementation re-typed for this project), seeded via splitmix64.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform in [0, bound). bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform float in [0, 1). */
    Float uniform();

    /** Uniform float in [lo, hi). */
    Float uniform(Float lo, Float hi);

    /** Standard normal via Box-Muller (uses two uniform draws). */
    Float normal();

    /** Normal with the given mean / stddev. */
    Float normal(Float mean, Float stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(Float p);

    /**
     * mask[i] = !bernoulli(p) for i < n, drawn in order: the values and
     * the final state of n bernoulli(p) calls. The generator state stays
     * in registers for the loop, and each trial is the exact integer
     * form of uniform() < p, so a mask costs no branch per element.
     */
    void keepMask(Float p, std::uint8_t *mask, std::size_t n);

    /**
     * Fork a child generator whose stream is independent of (and stable
     * with respect to) the parent. Used to give each module its own stream
     * so adding draws in one place does not perturb another.
     */
    Rng fork();

    /**
     * Stream-position capture for checkpoint/restore: copy the raw
     * xoshiro256** state out / back in. A generator restored via
     * setStateWords continues the exact draw sequence the captured one
     * would have produced — the property that makes a resumed training
     * run bitwise-equal to the uninterrupted one.
     */
    void stateWords(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = s_[i];
    }
    void setStateWords(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = in[i];
    }

  private:
    std::uint64_t s_[4];

    static std::uint64_t splitmix64(std::uint64_t &state);
    /** One xoshiro256** step on the state words s: returns the draw. */
    static std::uint64_t advance(std::uint64_t s[4]);
};

/**
 * Derive a stream key from up to four component words (splitmix64
 * finalisation per word, so every component fully avalanches). The
 * neighbor sampler keys one Rng per (epoch, batch, seed vertex) through
 * this, which is what makes sampled minibatches bitwise-identical at
 * any thread count and any pipeline interleaving: the stream a vertex
 * draws from depends only on these coordinates, never on which worker
 * expands it or when.
 */
std::uint64_t rngKey(std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0, std::uint64_t d = 0);

} // namespace maxk

#endif // MAXK_COMMON_RNG_HH
