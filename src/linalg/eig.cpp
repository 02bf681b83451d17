#include "linalg/eig.hpp"

#include <cmath>
#include <stdexcept>

namespace awe::linalg {

void balance_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  constexpr double kRadix = 2.0;
  bool done = false;
  while (!done) {
    done = true;
    for (std::size_t i = 0; i < n; ++i) {
      double r = 0.0, c = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        c += std::abs(a(j, i));
        r += std::abs(a(i, j));
      }
      if (c == 0.0 || r == 0.0) continue;
      double g = r / kRadix;
      double f = 1.0;
      const double s = c + r;
      while (c < g) {
        f *= kRadix;
        c *= kRadix * kRadix;
      }
      g = r * kRadix;
      while (c > g) {
        f /= kRadix;
        c /= kRadix * kRadix;
      }
      if ((c + r) / f < 0.95 * s) {
        done = false;
        const double inv_f = 1.0 / f;
        for (std::size_t j = 0; j < n; ++j) a(i, j) *= inv_f;
        for (std::size_t j = 0; j < n; ++j) a(j, i) *= f;
      }
    }
  }
}

void hessenberg_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  if (n < 3) return;
  for (std::size_t m = 1; m + 1 < n; ++m) {
    // Find pivot below the subdiagonal in column m-1.
    double x = 0.0;
    std::size_t piv = m;
    for (std::size_t j = m; j < n; ++j) {
      if (std::abs(a(j, m - 1)) > std::abs(x)) {
        x = a(j, m - 1);
        piv = j;
      }
    }
    if (piv != m) {
      for (std::size_t j = m - 1; j < n; ++j) std::swap(a(piv, j), a(m, j));
      for (std::size_t j = 0; j < n; ++j) std::swap(a(j, piv), a(j, m));
    }
    if (x != 0.0) {
      for (std::size_t i = m + 1; i < n; ++i) {
        double y = a(i, m - 1);
        if (y == 0.0) continue;
        y /= x;
        a(i, m - 1) = y;
        for (std::size_t j = m; j < n; ++j) a(i, j) -= y * a(m, j);
        for (std::size_t j = 0; j < n; ++j) a(j, m) += y * a(j, i);
      }
    }
  }
  // Zero the lower triangle left behind by the elimination multipliers.
  for (std::size_t i = 2; i < n; ++i)
    for (std::size_t j = 0; j + 1 < i; ++j) a(i, j) = 0.0;
}

namespace {

/// Francis double-shift QR on an upper Hessenberg matrix (EISPACK `hqr`);
/// appends the eigenvalues to `roots`.
void hqr(Matrix& a, CVector& roots) {
  const std::size_t size = a.rows();
  if (size == 0) return;

  double anorm = 0.0;
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t j = (i == 0 ? 0 : i - 1); j < size; ++j)
      anorm += std::abs(a(i, j));
  if (anorm == 0.0) {
    roots.insert(roots.end(), size, {0.0, 0.0});
    return;
  }

  long nn = static_cast<long>(size) - 1;  // signed: index arithmetic dips below 0
  double t = 0.0;
  while (nn >= 0) {
    int its = 0;
    long l;
    for (;;) {
      // Look for a small subdiagonal element.
      for (l = nn; l >= 1; --l) {
        const double s0 =
            std::abs(a(static_cast<std::size_t>(l - 1), static_cast<std::size_t>(l - 1))) +
            std::abs(a(static_cast<std::size_t>(l), static_cast<std::size_t>(l)));
        const double s = (s0 == 0.0) ? anorm : s0;
        if (std::abs(a(static_cast<std::size_t>(l), static_cast<std::size_t>(l - 1))) <=
            1e-15 * s) {
          a(static_cast<std::size_t>(l), static_cast<std::size_t>(l - 1)) = 0.0;
          break;
        }
      }
      auto A = [&](long i, long j) -> double& {
        return a(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      };
      double x = A(nn, nn);
      if (l == nn) {  // one real root found
        roots.emplace_back(x + t, 0.0);
        --nn;
        break;
      }
      double y = A(nn - 1, nn - 1);
      double w = A(nn, nn - 1) * A(nn - 1, nn);
      if (l == nn - 1) {  // two roots found
        double p = 0.5 * (y - x);
        double q = p * p + w;
        double z = std::sqrt(std::abs(q));
        x += t;
        if (q >= 0.0) {  // real pair
          z = p + (p >= 0.0 ? z : -z);
          roots.emplace_back(x + z, 0.0);
          roots.emplace_back(z != 0.0 ? x - w / z : x + z, 0.0);
        } else {  // complex pair
          roots.emplace_back(x + p, z);
          roots.emplace_back(x + p, -z);
        }
        nn -= 2;
        break;
      }
      if (its == 60) throw std::runtime_error("eigenvalues: QR iteration did not converge");
      double p = 0.0, q = 0.0, z = 0.0, r = 0.0, s = 0.0;
      if (its == 10 || its == 20) {  // exceptional shift
        t += x;
        for (long i = 0; i <= nn; ++i) A(i, i) -= x;
        s = std::abs(A(nn, nn - 1)) + std::abs(A(nn - 1, nn - 2));
        x = y = 0.75 * s;
        w = -0.4375 * s * s;
      }
      ++its;
      long m;
      for (m = nn - 2; m >= l; --m) {  // look for two consecutive small subdiagonals
        z = A(m, m);
        r = x - z;
        s = y - z;
        p = (r * s - w) / A(m + 1, m) + A(m, m + 1);
        q = A(m + 1, m + 1) - z - r - s;
        r = A(m + 2, m + 1);
        s = std::abs(p) + std::abs(q) + std::abs(r);
        p /= s;
        q /= s;
        r /= s;
        if (m == l) break;
        const double u = std::abs(A(m, m - 1)) * (std::abs(q) + std::abs(r));
        const double v = std::abs(p) * (std::abs(A(m - 1, m - 1)) + std::abs(z) +
                                        std::abs(A(m + 1, m + 1)));
        if (u <= 1e-15 * v) break;
      }
      for (long i = m + 2; i <= nn; ++i) {
        A(i, i - 2) = 0.0;
        if (i != m + 2) A(i, i - 3) = 0.0;
      }
      for (long k = m; k <= nn - 1; ++k) {  // double QR step
        if (k != m) {
          p = A(k, k - 1);
          q = A(k + 1, k - 1);
          r = (k != nn - 1) ? A(k + 2, k - 1) : 0.0;
          x = std::abs(p) + std::abs(q) + std::abs(r);
          if (x != 0.0) {
            p /= x;
            q /= x;
            r /= x;
          }
        }
        s = std::sqrt(p * p + q * q + r * r);
        if (p < 0.0) s = -s;
        if (s == 0.0) continue;
        if (k == m) {
          if (l != m) A(k, k - 1) = -A(k, k - 1);
        } else {
          A(k, k - 1) = -s * x;
        }
        p += s;
        x = p / s;
        y = q / s;
        z = r / s;
        q /= p;
        r /= p;
        for (long j = k; j <= nn; ++j) {  // row modification
          p = A(k, j) + q * A(k + 1, j);
          if (k != nn - 1) {
            p += r * A(k + 2, j);
            A(k + 2, j) -= p * z;
          }
          A(k + 1, j) -= p * y;
          A(k, j) -= p * x;
        }
        const long mmin = (nn < k + 3) ? nn : k + 3;
        for (long i = l; i <= mmin; ++i) {  // column modification
          p = x * A(i, k) + y * A(i, k + 1);
          if (k != nn - 1) {
            p += z * A(i, k + 2);
            A(i, k + 2) -= p * r;
          }
          A(i, k + 1) -= p * q;
          A(i, k) -= p;
        }
      }
    }
  }
}

}  // namespace

void eigenvalues_into(Matrix& a, CVector& out) {
  if (a.rows() != a.cols()) throw std::invalid_argument("eigenvalues: square matrix required");
  if (a.rows() == 1) {
    out.emplace_back(a(0, 0), 0.0);
    return;
  }
  balance_in_place(a);
  hessenberg_in_place(a);
  hqr(a, out);
}

CVector eigenvalues(Matrix a) {
  CVector roots;
  roots.reserve(a.rows());
  eigenvalues_into(a, roots);
  return roots;
}

}  // namespace awe::linalg
