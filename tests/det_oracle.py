"""The determinant route to the return generating function, kept as a
test oracle for `return_gen_fun`, which recovers f from the walk series.

f(t) = d(r) det(Delta' - tA') / det(Delta - tA), where Delta is the degree
diagonal and the primes delete the root's row and column.  The
determinants are taken by fraction-free (Bareiss) elimination.
"""
from batecho.exact import GenFun
from batecho.ratfun import IntPoly

from field_oracle import coprime, sub


def poly_det_bareiss(mat: list[list[IntPoly]]) -> IntPoly:
    """Determinant of a matrix of integer polynomials by fraction-free
    (Bareiss) elimination.  All intermediate divisions are exact."""
    n = len(mat)
    if n == 0:
        return IntPoly.one
    m = [row[:] for row in mat]
    sign = 1
    prev = IntPoly.one
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return IntPoly.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = sub(m[k][k] * m[i][j], m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = IntPoly.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else sub(IntPoly.zero, det)


def determinant_gen_fun(g) -> GenFun:
    """d(r) det(Delta' - tA') / det(Delta - tA) in canonical form, the
    common factors of the two determinants divided out by a gcd over Q."""
    n, r = g.n, g.root

    def char_mat(skip_root: bool):
        idx = [v for v in range(n) if not (skip_root and v == r)]
        pos = {v: i for i, v in enumerate(idx)}
        m = [[IntPoly.zero] * len(idx) for _ in idx]
        for v in idx:
            m[pos[v]][pos[v]] = IntPoly([g.degree(v)])
            for u in g.adjacency[v]:
                if u in pos:
                    m[pos[v]][pos[u]] = IntPoly([0, -1])
        return m

    det_full = poly_det_bareiss(char_mat(False))
    det_minor = poly_det_bareiss(char_mat(True))
    return GenFun(*coprime(g.degree(r) * det_minor, det_full))
