// Eigenvalues of small dense real matrices.
//
// AWE extracts approximate poles as the roots of the Padé denominator,
// computed as eigenvalues of the companion matrix.  Orders are small
// (the paper: "typically low, often less than five"), so a classic
// balanced Hessenberg + Francis double-shift QR is both adequate and
// dependency-free.
#pragma once

#include "linalg/dense.hpp"

namespace awe::linalg {

/// All eigenvalues of a general real square matrix (complex in conjugate
/// pairs).  Throws std::runtime_error if the QR iteration fails to
/// converge (pathological input).
CVector eigenvalues(Matrix a);

/// eigenvalues() without allocating: destroys `a` and appends the
/// eigenvalues to `out`, whose capacity must already hold them.
void eigenvalues_into(Matrix& a, CVector& out);

/// Balance a matrix in place (diagonal similarity scaling), improving the
/// accuracy of the subsequent eigenvalue computation.
void balance_in_place(Matrix& a);

/// Reduce to upper Hessenberg form in place via stabilized elimination.
void hessenberg_in_place(Matrix& a);

}  // namespace awe::linalg
