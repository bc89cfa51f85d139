/**
 * @file
 * gtest comparators for dense and CBSR matrices. These return
 * `AssertionResult`s that name the first offending element, so a sweep
 * failure points at (row, col, got, want) instead of a bare boolean —
 * the diagnostic the per-suite `approxEquals` checks never gave.
 */

#ifndef MAXK_TESTS_SUPPORT_COMPARATORS_HH
#define MAXK_TESTS_SUPPORT_COMPARATORS_HH

#include <gtest/gtest.h>

#include "core/cbsr.hh"
#include "tensor/matrix.hh"

namespace maxk::test
{

/** |a-b| <= atol element-wise (dimensions must match). */
::testing::AssertionResult matricesNear(const Matrix &a, const Matrix &b,
                                        Float atol);

/**
 * Same shape and the same bit pattern in every element, so -0 differs
 * from +0 (which Matrix::equals treats as equal) and a NaN matches a
 * NaN with the same payload.
 */
::testing::AssertionResult matricesBitwise(const Matrix &a,
                                           const Matrix &b);

/**
 * Mixed relative/absolute tolerance: |a-b| <= atol + rtol * |b|. Use for
 * quantities that span magnitudes (traffic bytes, accumulated sums).
 */
::testing::AssertionResult matricesNearRel(const Matrix &a,
                                           const Matrix &b, Float rtol,
                                           Float atol = 1e-6f);

/**
 * Every CBSR element (r, kk) agrees with dense.at(r, index(r, kk)) —
 * the gather comparison the SSpMM suites re-implemented as nested
 * ASSERT_NEAR loops.
 */
::testing::AssertionResult cbsrMatchesDenseGather(const CbsrMatrix &c,
                                                  const Matrix &dense,
                                                  Float atol);

/** Same sparsity pattern and element-wise near values between two CBSRs. */
::testing::AssertionResult cbsrNear(const CbsrMatrix &a,
                                    const CbsrMatrix &b, Float atol);

/** Identical sp_index patterns (the gradient-mask consistency check). */
::testing::AssertionResult cbsrSamePattern(const CbsrMatrix &a,
                                           const CbsrMatrix &b);

} // namespace maxk::test

#endif // MAXK_TESTS_SUPPORT_COMPARATORS_HH
