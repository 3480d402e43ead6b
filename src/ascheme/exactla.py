"""Exact linear algebra over the integers and the rationals.

Everything here works on small dense systems (dimensions bounded by the
square of the class count), so exact elimination is fast enough and keeps
every decision tolerance-free.  rank, minpoly_degree and solve_exact run
one fraction-free echelon, _echelon_insert, on rows of Python integers: it
cross-multiplies by the two pivot entries and divides each new row by the
gcd of its entries, which keeps every row a nonzero multiple of the row a
rational elimination would give.  A row that holds a non-integer is scaled
to integers once, on entry, by scale_to_integers, which also scales the
witnesses of generator for their integer check; solve_exact builds
Fractions only when it reads the solutions.

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

def scale_to_integers(vec):
    """(den, ints): den the lcm of the denominators of a vector of ints
    (bool included) and Fractions, and ints the Python ints den * vec."""
    v = list(vec)
    if all(map(isinstance, v, repeat(int))):
        return 1, v
    v = [a if isinstance(a, Fraction) else Fraction(a) for a in v]
    den = math.lcm(*(a.denominator for a in v))
    return den, [a.numerator * (den // a.denominator) for a in v]


def _eliminate(row, pivot_row, col):
    """row with its entry in column col cancelled against pivot_row, whose
    entry there is nonzero, divided by the gcd of its entries."""
    g = math.gcd(pivot_row[col], row[col])
    p, c = pivot_row[col] // g, row[col] // g
    v = [p * a - c * b for a, b in zip(row, pivot_row)]
    g = math.gcd(*v)
    return [a // g for a in v] if g > 1 else v


def _echelon_insert(basis, vec, width=None):
    """Reduce vec against an echelon basis; insert it if independent.

    basis is a dict pivot_index -> integer row, each row zero at the pivots
    of the rows inserted before it.  vec may hold ints or Fractions, and is
    scaled to integers once.  Pivots are taken among the first width
    entries (all of them by default).  Returns None when vec was inserted,
    else its reduced row, which is zero there.  The rank over Q is that of
    the rational elimination.
    """
    _, v = scale_to_integers(vec)
    for piv, row in basis.items():
        if v[piv]:
            v = _eliminate(v, row, piv)
    for i, a in enumerate(v[:width]):
        if a:
            basis[i] = v
            return None
    return v


def rank(vectors):
    """Rank of a list of equal-length rational vectors."""
    basis = {}
    return sum(_echelon_insert(basis, vec) is None for vec in vectors)


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
        if _echelon_insert(basis, power.ravel().tolist()) is not None:
            return deg
        power = int_matmul(power, B)
    raise MinpolyDegreeExceeded(len(B))  # cannot happen: minpoly degree <= n


def solve_exact(A, rhs):
    """One rational solution of A x = b for each b in rhs, or None for each
    b that is inconsistent.

    A is a list of rows and every b has one entry per row.  The rows of
    [A | rhs], all right-hand sides appended as extra columns, go through
    the echelon of rank and minpoly_degree with pivots kept in A's
    columns, so each solution is the one a pass with b alone would give.
    A row that reduces to zero in A's columns leaves a residue, and b is
    inconsistent iff some residue is nonzero in b's column.  One
    back-substitution pass, latest row first, then clears every other
    pivot from each row.  The pivot columns are those of every echelon
    form of A, the leading columns of its row space, and each row stays a
    nonzero multiple of its rational counterpart, so the solutions
    x_c = (row entry of b) / (pivot) are those of a rational Gauss-Jordan
    pass.  Free variables, if any, are set to zero; for the systems in
    this package the solution is unique whenever it exists.
    """
    if not A:
        return [[] for _ in rhs]
    k = len(A[0])
    basis = {}
    residues = [
        res
        for i, row in enumerate(A)
        if (res := _echelon_insert(basis, [*row, *(b[i] for b in rhs)], k)) is not None
    ]
    solved = []
    for piv, row in reversed(basis.items()):
        for c, other in solved:
            if row[c]:
                row = _eliminate(row, other, c)
        solved.append((piv, row))
    sols = []
    for j in range(k, k + len(rhs)):
        if any(res[j] for res in residues):
            sols.append(None)
            continue
        x = [Fraction(0)] * k
        for c, row in solved:
            x[c] = Fraction(row[j], row[c])
        sols.append(x)
    return sols
