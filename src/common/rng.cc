#include "common/rng.hh"

#include <algorithm>
#include <cmath>

namespace maxk
{

namespace
{
inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}
} // namespace

std::uint64_t
Rng::splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::advance(std::uint64_t s[4])
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Rng::next()
{
    return advance(s_);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Lemire-style rejection-free bounded draw is overkill here; the simple
    // modulo bias is < 2^-40 for all bounds used in this project.
    return next() % bound;
}

Float
Rng::uniform()
{
    // Use the top 24 bits for a dense fp32 mantissa.
    return static_cast<Float>(next() >> 40) * (1.0f / 16777216.0f);
}

Float
Rng::uniform(Float lo, Float hi)
{
    return lo + (hi - lo) * uniform();
}

Float
Rng::normal()
{
    // Box-Muller; reject u1 == 0 to avoid log(0).
    Float u1 = uniform();
    while (u1 <= 1e-12f)
        u1 = uniform();
    const Float u2 = uniform();
    const Float r = std::sqrt(-2.0f * std::log(u1));
    return r * std::cos(6.28318530717958647692f * u2);
}

Float
Rng::normal(Float mean, Float stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(Float p)
{
    return uniform() < p;
}

void
Rng::keepMask(Float p, std::uint8_t *mask, std::size_t n)
{
    // uniform() < p is m * 2^-24 < p for the 24-bit draw m (both sides
    // exact), i.e. m < ceil(p * 2^24); a NaN p, like p <= 0, drops
    // nothing.
    const double scaled = static_cast<double>(p) * 16777216.0;
    const std::uint64_t drop =
        scaled > 0.0 ? static_cast<std::uint64_t>(
                           std::ceil(std::min(scaled, 16777216.0)))
                     : 0;
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (std::size_t i = 0; i < n; ++i)
        mask[i] = static_cast<std::uint8_t>((advance(s) >> 40) >= drop);
    for (int i = 0; i < 4; ++i)
        s_[i] = s[i];
}

Rng
Rng::fork()
{
    // Derive the child from two draws so parent and child streams differ.
    const std::uint64_t a = next();
    const std::uint64_t b = next();
    return Rng(a ^ rotl(b, 31) ^ 0xA5A5A5A55A5A5A5Aull);
}

namespace
{

/** Absorb one word into a running key (splitmix64 finalisation). */
inline std::uint64_t
absorbWord(std::uint64_t h, std::uint64_t w)
{
    h += w + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

} // namespace

std::uint64_t
rngKey(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    std::uint64_t h = 0x243F6A8885A308D3ull; // pi fraction: nothing up the sleeve
    h = absorbWord(h, a);
    h = absorbWord(h, b);
    h = absorbWord(h, c);
    h = absorbWord(h, d);
    return h;
}

} // namespace maxk
