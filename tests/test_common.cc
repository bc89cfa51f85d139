/**
 * @file
 * Unit tests for src/common: RNG determinism and statistics, table/CSV
 * rendering, numeric formatting, logging levels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stopwatch.hh"
#include "common/table.hh"

namespace maxk
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const Float u = rng.uniform();
        ASSERT_GE(u, 0.0f);
        ASSERT_LT(u, 1.0f);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Float u = rng.uniform(-3.0f, 5.0f);
        ASSERT_GE(u, -3.0f);
        ASSERT_LT(u, 5.0f);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0f, 2.0f);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BoundedStaysBelowBound)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.nextBounded(37), 37u);
}

TEST(Rng, BoundedCoversAllResidues)
{
    Rng rng(23);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3f) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, KeepMaskIsNegatedBernoulliCallsAndSameState)
{
    // The bulk fill against one bernoulli(p) call per element: same
    // values, same final generator state. The probabilities cover both
    // ends, a rate below one draw step (1e-7 < 2^-23), a p whose p * 2^24
    // is an exact integer (the test is strict: draw 3 is kept), values
    // outside [0, 1] and NaN (nothing dropped, as uniform() < NaN fails).
    const Float ps[] = {0.0f,  1e-7f, 0.1f,  0.5f,
                        0.9f,  1.0f,  3.0f / 16777216.0f,
                        -0.5f, 2.0f,  std::nanf("")};
    for (const Float p : ps)
        for (const std::size_t n : {1u, 7u, 4097u}) {
            Rng fill(41), calls(41);
            std::vector<std::uint8_t> mask(n, 7);
            fill.keepMask(p, mask.data(), n);
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < n; ++i)
                mismatches += mask[i] != (calls.bernoulli(p) ? 0 : 1);
            EXPECT_EQ(mismatches, 0u) << "p=" << p << " n=" << n;
            std::uint64_t a[4], b[4];
            fill.stateWords(a);
            calls.stateWords(b);
            for (int w = 0; w < 4; ++w)
                EXPECT_EQ(a[w], b[w]) << "p=" << p << " n=" << n;
        }
}

/** Inverse of an odd x modulo 2^64 (Newton's iteration). */
std::uint64_t
oddInverse(std::uint64_t x)
{
    std::uint64_t inv = x; // right to 3 bits for any odd x
    for (int i = 0; i < 5; ++i)
        inv *= 2 - x * inv;
    return inv;
}

TEST(Rng, KeepMaskMatchesBernoulliAtTheThreshold)
{
    // A random stream reaches the draw m = ceil(p * 2^24) only once in
    // 2^24 trials, so craft it: xoshiro256**'s output depends only on
    // state word 1 (rotl(s1 * 5, 7) * 9), which inverts. The draws just
    // below, at and above the threshold must agree with bernoulli(p).
    for (const Float p : {0.5f, 0.1f, 3.0f / 16777216.0f}) {
        const auto drop = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(p) * 16777216.0));
        for (const std::uint64_t m : {drop - 1, drop, drop + 1}) {
            const std::uint64_t r = (m << 40) * oddInverse(9);
            const std::uint64_t s1 =
                ((r >> 7) | (r << 57)) * oddInverse(5);
            const std::uint64_t words[4] = {11, s1, 13, 17};
            Rng fill, call;
            fill.setStateWords(words);
            call.setStateWords(words);
            ASSERT_EQ(call.next() >> 40, m);
            call.setStateWords(words);
            std::uint8_t keep = 7;
            fill.keepMask(p, &keep, 1);
            EXPECT_EQ(keep, call.bernoulli(p) ? 0 : 1)
                << "p=" << p << " m=" << m;
        }
    }
}

TEST(Rng, ForkedStreamsIndependent)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng a(37), b(37);
    Rng ca = a.fork(), cb = b.fork();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(ca.next(), cb.next());
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RowCountTracked)
{
    TextTable t({"a"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"x"});
    t.addRow({"y"});
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvEscapesCommasAndQuotes)
{
    TextTable t({"a", "b"});
    t.addRow({"x,y", "say \"hi\""});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, CsvPlainCellsUnquoted)
{
    TextTable t({"a"});
    t.addRow({"plain"});
    EXPECT_NE(t.renderCsv().find("plain\n"), std::string::npos);
    EXPECT_EQ(t.renderCsv().find('"'), std::string::npos);
}

TEST(Format, FloatDecimals)
{
    EXPECT_EQ(formatFloat(3.14159, 2), "3.14");
    EXPECT_EQ(formatFloat(2.0, 0), "2");
    EXPECT_EQ(formatFloat(-1.5, 1), "-1.5");
}

TEST(Format, Scientific)
{
    EXPECT_EQ(formatSci(12345.0, 3), "1.23e+04");
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KB");
    EXPECT_EQ(formatBytes(13.13e9), "12.23 GB");
}

TEST(Format, Speedup)
{
    EXPECT_EQ(formatSpeedup(3.2234), "3.22x");
    EXPECT_EQ(formatSpeedup(1.0), "1.00x");
}

TEST(Logging, LevelGateHoldsMessages)
{
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Error);
    // Only checks the gate does not crash; output goes to stderr.
    logMessage(LogLevel::Debug, "below the gate");
    logMessage(LogLevel::Error, "at the gate");
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setLogLevel(prev);
}

TEST(Logging, CheckInvariantPassesOnTrue)
{
    checkInvariant(true, "never fires");
    SUCCEED();
}

TEST(LoggingDeathTest, CheckInvariantAbortsOnFalse)
{
    EXPECT_DEATH(checkInvariant(false, "boom"), "boom");
}

TEST(Stopwatch, MeasuresNonNegativeTime)
{
    Stopwatch w;
    // Plain assignment: compound assignment on a volatile operand is
    // deprecated in C++20 (gcc 12 warns under -Werror).
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i;
    EXPECT_GE(w.seconds(), 0.0);
    EXPECT_GE(w.milliseconds(), w.seconds() * 1e3 - 1e-9);
}

} // namespace
} // namespace maxk
