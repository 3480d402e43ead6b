"""Exact linear algebra over the rationals.

Everything here works on small dense systems (dimensions bounded by the
square of the class count), so exact elimination is fast enough and keeps
every decision tolerance-free.  Rank and minimal-polynomial degree use
fraction-free integer elimination; solve_exact uses Fractions and solves
any number of right-hand sides in one Gauss-Jordan pass over the matrix.
Matrix powers are taken with Python integers, which never overflow.
"""

import math
from fractions import Fraction

from .errors import MinpolyDegreeExceeded


def _echelon_insert(basis, vec):
    """Reduce vec against an echelon basis; insert if independent.

    basis is a dict pivot_index -> integer row.  vec may hold ints or
    Fractions; it is scaled to integers first.  Each reduction step
    cross-multiplies by the two pivot entries and divides by the row gcd,
    so rows stay small integers and the rank over Q is unchanged.  Returns
    True when vec was independent and inserted.
    """
    v = [Fraction(x) for x in vec]
    den = math.lcm(*(a.denominator for a in v))
    v = [a.numerator * (den // a.denominator) for a in v]
    for piv, row in basis.items():
        c = v[piv]
        if c:
            g = math.gcd(row[piv], c)
            p, c = row[piv] // g, c // g
            v = [p * a - c * b for a, b in zip(v, row)]
            g = math.gcd(*v)
            if g > 1:
                v = [a // g for a in v]
    for i, a in enumerate(v):
        if a:
            basis[i] = v
            return True
    return False


def rank(vectors):
    """Rank of a list of equal-length rational vectors."""
    basis = {}
    r = 0
    for vec in vectors:
        if _echelon_insert(basis, vec):
            r += 1
    return r


def int_matmul(A, B):
    """Product of two square matrices given as lists of lists of ints."""
    n = len(A)
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matrix_powers(B, tmax):
    """[B^0, B^1, ..., B^tmax] with exact integer arithmetic."""
    n = len(B)
    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for _ in range(tmax):
        powers.append(int_matmul(powers[-1], B))
    return powers


def minpoly_degree(B):
    """Degree of the minimal polynomial of an integer matrix over Q.

    Adds flattened powers I, B, B^2, ... to an echelon basis until one
    becomes dependent.  For a diagonalizable matrix this equals the number
    of distinct eigenvalues.
    """
    n = len(B)
    basis = {}
    cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    deg = 0
    while True:
        flat = [x for row in cur for x in row]
        if not _echelon_insert(basis, flat):
            return deg
        deg += 1
        if deg > n:  # cannot happen: minpoly degree <= n
            raise MinpolyDegreeExceeded(n)
        cur = int_matmul(cur, B)


def solve_exact(A, rhs):
    """One rational solution of A x = b for each b in rhs, or None for each
    b that is inconsistent.

    A is a list of rows and every b has one entry per row.  A single
    Fraction Gauss-Jordan pass runs over A with all right-hand sides
    appended as extra columns; pivots are chosen in A's columns only, so
    each solution is the one a pass with b alone would give.  Free
    variables, if any, are set to zero; for the systems in this package
    the solution is unique whenever it exists.
    """
    m = len(A)
    if m == 0:
        return [[] for _ in rhs]
    k = len(A[0])
    aug = [
        [Fraction(x) for x in row] + [Fraction(b[i]) for b in rhs]
        for i, row in enumerate(A)
    ]
    pivots = []
    r = 0
    for c in range(k):
        sel = None
        for i in range(r, m):
            if aug[i][c]:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    sols = []
    for j in range(k, k + len(rhs)):
        if any(aug[i][j] for i in range(r, m)):
            sols.append(None)
            continue
        x = [Fraction(0)] * k
        for row_idx, c in enumerate(pivots):
            x[c] = aug[row_idx][j]
        sols.append(x)
    return sols
