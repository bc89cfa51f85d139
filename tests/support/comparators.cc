#include "support/comparators.hh"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace maxk::test
{
namespace
{

::testing::AssertionResult
dimensionMismatch(const char *what, std::size_t ar, std::size_t ac,
                  std::size_t br, std::size_t bc)
{
    return ::testing::AssertionFailure()
           << what << " dimension mismatch: " << ar << "x" << ac
           << " vs " << br << "x" << bc;
}

} // namespace

::testing::AssertionResult
matricesNear(const Matrix &a, const Matrix &b, Float atol)
{
    return matricesNearRel(a, b, 0.0f, atol);
}

::testing::AssertionResult
matricesBitwise(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return dimensionMismatch("matrix", a.rows(), a.cols(), b.rows(),
                                 b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            std::uint32_t got = 0, want = 0;
            std::memcpy(&got, &a.row(r)[c], sizeof(got));
            std::memcpy(&want, &b.row(r)[c], sizeof(want));
            if (got != want)
                return ::testing::AssertionFailure()
                       << "first bit mismatch at (" << r << ", " << c
                       << "): got " << a.at(r, c) << " (0x" << std::hex
                       << got << "), want " << b.at(r, c) << " (0x"
                       << want << ")";
        }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
matricesNearRel(const Matrix &a, const Matrix &b, Float rtol, Float atol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return dimensionMismatch("matrix", a.rows(), a.cols(), b.rows(),
                                 b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const Float got = a.at(r, c);
            const Float want = b.at(r, c);
            const Float bound = atol + rtol * std::abs(want);
            if (!(std::abs(got - want) <= bound))
                return ::testing::AssertionFailure()
                       << "first mismatch at (" << r << ", " << c
                       << "): got " << got << ", want " << want
                       << " (|diff| " << std::abs(got - want) << " > "
                       << bound << ")";
        }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
cbsrMatchesDenseGather(const CbsrMatrix &c, const Matrix &dense,
                       Float atol)
{
    if (c.rows() != dense.rows() || c.dimOrigin() != dense.cols())
        return dimensionMismatch("cbsr-vs-dense", c.rows(),
                                 c.dimOrigin(), dense.rows(),
                                 dense.cols());
    for (NodeId r = 0; r < c.rows(); ++r)
        for (std::uint32_t kk = 0; kk < c.dimK(); ++kk) {
            const Float got = c.dataRow(r)[kk];
            const Float want = dense.at(r, c.indexAt(r, kk));
            if (!(std::abs(got - want) <= atol))
                return ::testing::AssertionFailure()
                       << "first mismatch at row " << r << " slot " << kk
                       << " (column " << c.indexAt(r, kk) << "): got "
                       << got << ", want " << want;
        }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
cbsrNear(const CbsrMatrix &a, const CbsrMatrix &b, Float atol)
{
    const auto pattern = cbsrSamePattern(a, b);
    if (!pattern)
        return pattern;
    for (NodeId r = 0; r < a.rows(); ++r)
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk) {
            const Float got = a.dataRow(r)[kk];
            const Float want = b.dataRow(r)[kk];
            if (!(std::abs(got - want) <= atol))
                return ::testing::AssertionFailure()
                       << "value mismatch at row " << r << " slot " << kk
                       << ": got " << got << ", want " << want;
        }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
cbsrSamePattern(const CbsrMatrix &a, const CbsrMatrix &b)
{
    if (a.rows() != b.rows() || a.dimK() != b.dimK() ||
        a.dimOrigin() != b.dimOrigin())
        return ::testing::AssertionFailure()
               << "cbsr shape mismatch: " << a.rows() << "x" << a.dimK()
               << "/" << a.dimOrigin() << " vs " << b.rows() << "x"
               << b.dimK() << "/" << b.dimOrigin();
    for (NodeId r = 0; r < a.rows(); ++r)
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk)
            if (a.indexAt(r, kk) != b.indexAt(r, kk))
                return ::testing::AssertionFailure()
                       << "pattern mismatch at row " << r << " slot "
                       << kk << ": " << a.indexAt(r, kk) << " vs "
                       << b.indexAt(r, kk);
    return ::testing::AssertionSuccess();
}

} // namespace maxk::test
