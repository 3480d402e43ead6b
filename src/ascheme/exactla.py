"""Exact linear algebra over the integers and the rationals.

Everything here works on small dense systems (dimensions bounded by the
square of the class count), so exact elimination is fast enough and keeps
every decision tolerance-free.  rank, minpoly_degree and solve_exact run
one fraction-free echelon, _echelon_insert, on rows of Python integers: it
cross-multiplies by the two pivot entries and divides each new row by the
gcd of its entries, which keeps every row a nonzero multiple of the row a
rational elimination would give.  A row that holds a non-integer is scaled
to integers once, on entry, by scale_to_integers; solve_exact builds
Fractions only when it reads the solutions.

bareiss_inverse is the generation path's one elimination: a fraction-free
Gauss-Jordan pass over [K | I] (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
that divides each updated entry exactly by the previous pivot, so every
entry stays an integer minor of [K | I] and no gcd is taken.  It runs in
place, on m entries a row.  It stops at the first column of K with no
pivot, the first column in the span of the columns before it; for a
Krylov matrix [v, B v, ..., B^(m-1) v], whose later columns are then in
that span too, the stop index is the rank.  A nonsingular K gives the last
pivot det' = +-det K and the adjugate rows det' K^-1 instead, all in
integers.  From them generator reads each witness K^-1 e_i as the integer
vector den_i K^-1 e_i, den_i = |det'| / gcd(det', column i of the
adjugate), and builds no Fraction to check it.

int_matmul multiplies on numpy and is exact by a bound it proves from its
operands.  Let R be the largest row sum of |A| and M the largest |B| (each
taken as at least 1), both over the whole stack when the operands are
stacks of matrices.  Every entry of A and B is then at most R * M in
absolute value, and every partial sum of a_ik * b_kj over k is at most
sum_k |a_ik| * M <= R * M.  So when R * M < 2^63 the int64 product cannot
overflow at any step; otherwise the product runs in object dtype on Python
integers, which never overflow.
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
    """Exact product of two integer matrices, or of two equal-length stacks
    of them, given as arrays or lists of rows: an int64 array when the
    module's bound proves that no partial sum can overflow, else an object
    array of Python ints."""
    A, B = _exact(A), _exact(B)
    rows = A.reshape(-1, A.shape[-1]).tolist()
    row_sum = max((sum(map(abs, row)) for row in rows), default=0)
    largest = max(int(B.max()), -int(B.min())) if B.size else 0
    dtype = np.int64 if max(row_sum, 1) * max(largest, 1) < 2**63 else object
    return A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)


def bareiss_inverse(K):
    """(stop, det, adj) for a square integer matrix K, given as a list of
    rows, from one fraction-free Gauss-Jordan pass over [K | I].

    Step k takes as pivot row the first row p, among those not yet pivot
    rows, with a nonzero entry a in column k, and sets every other row to
    (a * row - c * pivot row) // prev, where c is the row's entry in
    column k and prev the pivot of step k - 1 (1 at step 0).  The division
    is exact (Bareiss): every entry is then a minor of [K | I].  A row with
    c = 0 and a = prev is left as it is.  The pass runs in place, m entries
    a row: column k of K, once cleared, holds only a on row p, and column p
    of I, which until then held prev on row p alone, has become -c on each
    other row, so it takes column k's place.  If column k has no pivot, it
    lies in the span of the columns before it, and the result is
    (k, None, None).  Otherwise the left block ends as det' times a
    permutation, det' = +-det K the last pivot, and the right block's rows,
    put in the order of their pivot columns, are those of det' K^-1:
    (len(K), det', rows).
    """
    m = len(K)
    rows = [list(row) for row in K]
    free = list(range(m))
    order = []
    prev = 1
    for k in range(m):
        p = next((i for i in free if rows[i][k]), None)
        if p is None:
            return k, None, None
        free.remove(p)
        order.append(p)
        pivot = rows[p]
        a = pivot[k]
        for i, row in enumerate(rows):
            c = row[k]
            if i != p and (c or a != prev):
                rows[i] = [(a * x - c * y) // prev for x, y in zip(row, pivot)]
                rows[i][k] = -c
        pivot[k] = prev
        prev = a
    slot = {p: k for k, p in enumerate(order)}
    return m, prev, [[rows[p][slot[j]] for j in range(m)] for p in order]


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
