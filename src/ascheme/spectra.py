"""Character tables and eigenvalue counts for commutative schemes.

The table P is computed from the regular representation: the matrices
B_i[l, j] = p_{ij}^l multiply like the adjacency matrices, and the row
vector u_j = (p_0(j), ..., p_d(j)) satisfies u_j B_i = p_i(j) u_j.  So the
left eigenrows of a random combination sum c_i B_i, normalized to have
first coordinate 1, are exactly the rows of P.  Degenerate draws are
detected and retried with doubled working precision (mpmath).

Counting distinct eigenvalues of a union digraph never relies on floats:
the count is the degree of the minimal polynomial of the integer matrix
B_Lambda over Q, by exact Gaussian elimination.  The floating route
(union_spectrum, tolerance clustering) exists as an independent
cross-check, not as the decision procedure.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .core import union_classes
from .errors import (
    ClusteringAmbiguity,
    EigenSeparationFailure,
    MultiplicityNotIntegral,
    MultiplicitySumMismatch,
    NonCommutative,
)
from .exact import (
    QuadVal,
    radical_sum,
    radical_sum_to_complex,
    snap_quadratic_pair,
    snap_rational_value,
)

DEFAULT_SEED = 0x5EED
MAX_RETRIES = 8
CLUSTER_TOL = 1e-9


def intersection_matrices(s):
    """The regular-representation matrices B_i with B_i[l, j] = p_{ij}^l.

    Raises NonCommutative for non-commutative schemes: their left regular
    representation does not have a common eigenbasis.
    """
    if not s.is_commutative:
        raise NonCommutative("scheme has non-commuting intersection matrices")
    p = s.tensor.p
    return [np.ascontiguousarray(p[i].T) for i in range(s.d + 1)]


@dataclass(frozen=True)
class EigenTable:
    """Character table with exactness annotations.

    P[j, i] is the eigenvalue of A_i on the j-th common eigenspace; row 0
    is the valency row and column 0 is all ones.  exact[j][i] is a QuadVal
    when the entry snapped to a rational or quadratic value, else None.
    eigen_basis holds the raw eigenrows as computed, before snapping.
    """

    P: np.ndarray
    multiplicities: tuple
    exact: tuple
    eigen_basis: np.ndarray
    n: int
    valencies: tuple

    @property
    def d(self):
        return self.P.shape[0] - 1

    def exactness(self):
        tags = []
        for row in self.exact:
            for val in row:
                if val is None:
                    tags.append("floating")
                elif val.is_rational:
                    tags.append("rational-exact")
                else:
                    tags.append("quadratic-exact")
        return tags

    def to_json(self):
        return {
            "P": [[float(z.real), float(z.imag)] for z in self.P.ravel()],
            "multiplicities": list(self.multiplicities),
            "exactness": self.exactness(),
        }


def _eigenrows_float(M, B, sep_tol):
    w, V = np.linalg.eig(M.T)
    scale = max(1.0, float(np.abs(w).max()))
    for a in range(len(w)):
        for b in range(a + 1, len(w)):
            if abs(w[a] - w[b]) <= sep_tol * scale:
                return None
    U = V.T.astype(np.complex128)
    return _normalize_and_check(U, B)


def _eigenrows_mp(M, B, dps):
    from mpmath import mp

    old = mp.dps
    try:
        mp.dps = dps
        A = mp.matrix(M.T.tolist())
        E, ER = mp.eig(A, left=False, right=True)
        scale = max(1.0, max(abs(complex(e)) for e in E))
        m = len(E)
        for a in range(m):
            for b in range(a + 1, m):
                if abs(complex(E[a] - E[b])) <= 10.0 ** (-(dps // 2)) * scale:
                    return None
        U = np.array(
            [[complex(ER[r, c]) for r in range(m)] for c in range(m)],
            dtype=np.complex128,
        )
    finally:
        mp.dps = old
    return _normalize_and_check(U, B)


def _normalize_and_check(U, B):
    if np.any(np.abs(U[:, 0]) < 1e-10):
        return None
    U = U / U[:, :1]
    bound = max(1.0, float(np.abs(U).max()))
    for i in range(1, len(B)):
        expect = U[:, i][:, None] * U
        resid = np.abs(U @ B[i] - expect).max()
        if resid > 1e-7 * bound * max(1.0, float(np.abs(B[i]).max())):
            return None
    return U


def _snap_table(P, valencies):
    """Snap entries to exact values; returns (snapped P, exact grid)."""
    dp1 = P.shape[0]
    scale = max(1.0, float(np.abs(P).max()))
    tol = CLUSTER_TOL * scale
    exact = [[None] * dp1 for _ in range(dp1)]
    for i in range(dp1):
        exact[0][i] = QuadVal.rational(valencies[i])
        P[0, i] = valencies[i]
    for j in range(1, dp1):
        exact[j][0] = QuadVal.rational(1)
        P[j, 0] = 1.0
    for j in range(1, dp1):
        for i in range(1, dp1):
            val = snap_rational_value(complex(P[j, i]), tol)
            if val is not None:
                exact[j][i] = val
                P[j, i] = val.to_complex()
    # quadratic entries come in conjugate or Galois pairs within a column
    for i in range(1, dp1):
        open_rows = [j for j in range(1, dp1) if exact[j][i] is None]
        used = set()
        for a_pos, j in enumerate(open_rows):
            if j in used:
                continue
            for j2 in open_rows[a_pos + 1 :]:
                if j2 in used:
                    continue
                got = snap_quadratic_pair(complex(P[j, i]), complex(P[j2, i]), tol)
                if got is not None:
                    exact[j][i], exact[j2][i] = got
                    P[j, i] = got[0].to_complex()
                    P[j2, i] = got[1].to_complex()
                    used.update((j, j2))
                    break
    return P, tuple(tuple(row) for row in exact)


def multiplicities(P, valencies, n):
    """m_j = n / sum_i |p_i(j)|^2 / k_i, checked integral within 1e-6."""
    dp1 = P.shape[0]
    out = []
    for j in range(dp1):
        denom = sum(
            abs(P[j, i]) ** 2 / valencies[i] for i in range(dp1)
        )
        m = n / denom
        if abs(m - round(m)) > 1e-6:
            raise MultiplicityNotIntegral(j, m)
        out.append(int(round(m)))
    return out


def character_table(s, seed=DEFAULT_SEED, precision=64):
    """Compute the character table of a commutative scheme.

    seed drives the random combination coefficients; precision 128 starts
    directly on the software-float path.  Each retry draws a fresh
    combination and doubles the working precision.
    """
    B = intersection_matrices(s)
    d = s.d
    n = s.n
    if d == 0:
        one = QuadVal.rational(1)
        P = np.ones((1, 1), dtype=np.complex128)
        return EigenTable(P, (1,), ((one,),), P.copy(), n, s.valencies)
    rng = np.random.default_rng(seed)
    k = np.array(s.valencies, dtype=np.float64)
    rows = None
    for attempt in range(MAX_RETRIES + 1):
        c = rng.integers(-10, 11, size=d)
        if not np.any(c):
            continue
        M = sum(int(c[i]) * B[i + 1] for i in range(d)).astype(np.float64)
        if attempt == 0 and precision == 64:
            U = _eigenrows_float(M, B, sep_tol=1e-6)
        else:
            U = _eigenrows_mp(M, B, dps=17 * 2 ** max(1, attempt))
        if U is None:
            continue
        # locate the Perron row (valencies) and pin it exactly
        dev = np.abs(U - k[None, :]).max(axis=1)
        v = int(np.argmin(dev))
        if dev[v] > 1e-6 * max(1.0, k.max()):
            continue
        rows = np.vstack([U[v : v + 1], np.delete(U, v, axis=0)])
        break
    if rows is None:
        raise EigenSeparationFailure(
            f"no separating combination found in {MAX_RETRIES + 1} attempts"
        )
    # canonical row order: valency row first, the rest sorted by the
    # column-1 entry (real, then imaginary) descending; later columns
    # break exact ties
    def row_key(r):
        return tuple(
            (-round(float(rows[r, i].real), 9), -round(float(rows[r, i].imag), 9))
            for i in range(1, d + 1)
        )

    order = [0] + sorted(range(1, d + 1), key=row_key)
    basis = rows[order].copy()
    P, exact = _snap_table(rows[order].copy(), s.valencies)
    mults = tuple(multiplicities(P, s.valencies, n))
    if mults[0] != 1 or sum(mults) != n:
        raise MultiplicitySumMismatch(f"multiplicities {list(mults)}, n = {n}")
    return EigenTable(P, mults, exact, basis, n, s.valencies)


def distinct_eigenvalue_count(s, union):
    """Exact number of distinct eigenvalues of the union digraph.

    Equals the degree of the minimal polynomial of B_Lambda over Q; the
    B_i are simultaneously diagonalizable for a commutative scheme, so the
    minimal polynomial is squarefree.
    """
    B = intersection_matrices(s)
    cols = union_classes(s.d, union)
    BL = sum(B[i] for i in cols)
    return exactla.minpoly_degree([[int(x) for x in row] for row in BL])


def union_spectrum(e, union):
    """Eigenvalue multiset of a union digraph from the character table.

    Returns [(value, multiplicity), ...] sorted by (re, im) descending.
    Row sums are exact whenever every involved entry snapped; otherwise
    clusters are merged at 1e-9 relative tolerance, and a gap between
    distinct values below ten times that tolerance raises
    ClusteringAmbiguity rather than guessing.
    """
    cols = union_classes(e.d, union)
    sums = e.P[:, list(cols)].sum(axis=1)
    forms = []
    for j in range(e.d + 1):
        vals = [e.exact[j][i] for i in cols]
        forms.append(radical_sum(vals) if all(v is not None for v in vals) else None)
    scale = max(1.0, float(np.abs(sums).max()))
    tol = CLUSTER_TOL * scale
    clusters = []  # [value, form, mult]
    for j in range(e.d + 1):
        z = complex(sums[j]) if forms[j] is None else radical_sum_to_complex(forms[j])
        hit = None
        for cl in clusters:
            if forms[j] is not None and cl[1] is not None:
                same = forms[j] == cl[1]
            else:
                same = abs(z - cl[0]) <= tol
            if same:
                hit = cl
                break
        if hit is None:
            clusters.append([z, forms[j], e.multiplicities[j]])
        else:
            hit[2] += e.multiplicities[j]
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            if clusters[a][1] is not None and clusters[b][1] is not None:
                continue
            if abs(clusters[a][0] - clusters[b][0]) < 10 * tol:
                raise ClusteringAmbiguity(
                    f"union spectrum values {clusters[a][0]} and {clusters[b][0]} "
                    "are too close to separate at working precision"
                )
    clusters.sort(key=lambda cl: (-round(cl[0].real, 9), -round(cl[0].imag, 9)))
    return [(cl[0], cl[2]) for cl in clusters]
