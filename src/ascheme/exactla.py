"""Exact linear algebra over the integers and the rationals.

Everything here works on small dense systems (dimensions bounded by the
square of the class count), so exact elimination is fast enough and keeps
every decision tolerance-free.  Elimination is fraction-free: rank,
minimal-polynomial degree and solve_exact work on rows of Python integers,
cross-multiplying by the two pivot entries and dividing each new row by the
gcd of its entries, which keeps every row a nonzero multiple of the row a
rational elimination would give.  A row that holds a non-integer is scaled
to integers once, on entry; solve_exact builds Fractions only when it reads
the solutions.

int_matmul multiplies on numpy and is exact by a bound it proves from its
operands.  Let R be the largest row sum of |A| and M the largest |B| (each
taken as at least 1).  Every entry of A and B is then at most R * M in
absolute value, and every partial sum of a_ik * b_kj over k is at most
sum_k |a_ik| * M <= R * M.  So when R * M < 2^63 the int64 product cannot
overflow at any step; otherwise the product runs in object dtype on Python
integers, which never overflow.  For the nonnegative powers of a regular
representation every partial sum is moreover at most the final entry.
"""

import math
from fractions import Fraction
from itertools import repeat

import numpy as np

from .errors import MinpolyDegreeExceeded

def _integers(vec):
    """vec as a list of Python ints (bool included), scaled by the lcm of
    its denominators when some entry is not one."""
    v = list(vec)
    if all(map(isinstance, v, repeat(int))):
        return v
    v = [Fraction(a) for a in v]
    den = math.lcm(*(a.denominator for a in v))
    return [a.numerator * (den // a.denominator) for a in v]


def _eliminate(row, pivot_row, col):
    """row with its entry in column col cancelled against pivot_row, whose
    entry there is nonzero, divided by the gcd of its entries."""
    g = math.gcd(pivot_row[col], row[col])
    p, c = pivot_row[col] // g, row[col] // g
    v = [p * a - c * b for a, b in zip(row, pivot_row)]
    g = math.gcd(*v)
    return [a // g for a in v] if g > 1 else v


def _echelon_insert(basis, vec):
    """Reduce vec against an echelon basis; insert if independent.

    basis is a dict pivot_index -> integer row.  vec may hold ints or
    Fractions; integer vectors are taken as they are.  The rank over Q is
    that of the rational elimination.  Returns True when vec was
    independent and inserted.
    """
    v = _integers(vec)
    for piv, row in basis.items():
        if v[piv]:
            v = _eliminate(v, row, piv)
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


def _exact(M):
    """An integer matrix, given as an array or a list of rows, as an int64
    or object array that holds its entries exactly (np.asarray would turn
    a list with an entry of 2^63 or more into floats)."""
    if isinstance(M, np.ndarray):
        return M if M.dtype.kind in "iO" else M.astype(object)
    try:
        return np.array(M, dtype=np.int64)
    except OverflowError:
        return np.array(M, dtype=object)


def int_matmul(A, B):
    """Exact product of two integer matrices, given as arrays or lists of
    rows: an int64 array when the module's bound proves that no partial
    sum can overflow, else an object array of Python ints."""
    A, B = _exact(A), _exact(B)
    row_sum = max((sum(map(abs, row)) for row in A.tolist()), default=0)
    largest = max(map(abs, B.ravel().tolist()), default=0)
    dtype = np.int64 if max(row_sum, 1) * max(largest, 1) < 2**63 else object
    return A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)


def matrix_powers(B, tmax):
    """[B^0, B^1, ..., B^tmax] as arrays, exact (see int_matmul)."""
    B = _exact(B)
    powers = [np.eye(len(B), dtype=np.int64)]
    for _ in range(tmax):
        powers.append(int_matmul(powers[-1], B))
    return powers


def minpoly_degree(B):
    """Degree of the minimal polynomial of an integer matrix over Q.

    Adds flattened powers I, B, B^2, ... to an echelon basis until one
    becomes dependent.  For a diagonalizable matrix this equals the number
    of distinct eigenvalues.
    """
    B = _exact(B)
    power = np.eye(len(B), dtype=np.int64)
    basis = {}
    for deg in range(len(B) + 1):
        if not _echelon_insert(basis, power.ravel().tolist()):
            return deg
        power = int_matmul(power, B)
    raise MinpolyDegreeExceeded(len(B))  # cannot happen: minpoly degree <= n


def solve_exact(A, rhs):
    """One rational solution of A x = b for each b in rhs, or None for each
    b that is inconsistent.

    A is a list of rows and every b has one entry per row.  A single
    fraction-free Gauss-Jordan pass runs over A with all right-hand sides
    appended as extra columns; pivots are chosen in A's columns only, so
    each solution is the one a pass with b alone would give.  Each row
    stays a nonzero multiple of the row a rational pass gives, so the
    pivots, and the solutions x_c = (row entry of b) / (pivot), are those
    of the rational pass.  Free variables, if any, are set to zero; for
    the systems in this package the solution is unique whenever it exists.
    """
    m = len(A)
    if m == 0:
        return [[] for _ in rhs]
    k = len(A[0])
    aug = [_integers([*row, *(b[i] for b in rhs)]) for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, m) if aug[i][c]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(m):
            if i != r and aug[i][c]:
                aug[i] = _eliminate(aug[i], aug[r], c)
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
            x[c] = Fraction(aug[row_idx][j], aug[row_idx][c])
        sols.append(x)
    return sols
