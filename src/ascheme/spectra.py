"""Character tables and eigenvalue counts for commutative schemes.

The table P is computed from the regular representation: the matrices
B_i[l, j] = p_{ij}^l multiply like the adjacency matrices, and the row
vector u_j = (p_0(j), ..., p_d(j)) satisfies u_j B_i = p_i(j) u_j.  So the
left eigenrows of a random combination sum c_i B_i, normalized to have
first coordinate 1, are exactly the rows of P.  A draw whose eigenvalues
do not separate is detected and retried with coefficients from a range ten
times wider: equal eigenvalues are a coincidence of the draw, which no
working precision would separate.

Every equality between table values is decided by one routine,
group_rows, on per-row block sums (block_sums): two sums are compared
exactly when every entry in both snapped, and otherwise agree within
CLUSTER_TOL times the largest sum; a gap inside the window between that
tolerance and ten times it raises ToleranceAmbiguity instead of guessing.
The spectral fusion check, the amorphic normal form, the row map to the
symmetrization, T4.1's test of whether an entry is real and union_spectrum
(the rows grouped on the one block Lambda) all call it.

Counting distinct eigenvalues of a union digraph never relies on floats.
generator.generates decides generation from the rank of a Krylov matrix;
distinct_eigenvalue_count is an independent exact oracle for the same
count, the degree of the minimal polynomial of the integer matrix
B_Lambda, the sum of the B_i over the union, over Q.  union_spectrum, read
from the table, is a float cross-check of both, not a decision procedure.
"""

from dataclasses import dataclass

import numpy as np

from . import exactla
from .core import memoized, union_classes
from .errors import (
    EigenSeparationFailure,
    MultiplicityNotIntegral,
    MultiplicitySumMismatch,
    NonCommutative,
    ToleranceAmbiguity,
)
from .exact import (
    QuadVal,
    radical_sum,
    radical_sum_to_complex,
    snap_quadratic_pair,
    snap_rational_value,
)

SEED = 0x5EED  # the draws are fixed, so every table is deterministic
MAX_RETRIES = 8
CLUSTER_TOL = 1e-9  # relative: two table values within it are equal
RESID_TOL = 1e-8  # absolute: a computed value within it of its prediction holds


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
    The tables of character_table are shared by all its callers, so their
    P is read-only.
    """

    P: np.ndarray
    multiplicities: tuple
    exact: tuple
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


def _read_only(e):
    e.P.setflags(write=False)
    return e


@memoized(lambda s: ())
def character_table(s):
    """Compute the character table of a commutative scheme.

    Attempt a draws the random combination coefficients from
    [-10^(a+1), 10^(a+1)] with the fixed SEED, so each retry makes a chance
    collision of two rows' eigenvalues ten times less likely.  The table is
    computed once per scheme and is read-only.
    """
    B = intersection_matrices(s)
    d = s.d
    n = s.n
    if d == 0:
        one = QuadVal.rational(1)
        P = np.ones((1, 1), dtype=np.complex128)
        return _read_only(EigenTable(P, (1,), ((one,),), n, s.valencies))
    rng = np.random.default_rng(SEED)
    k = np.array(s.valencies, dtype=np.float64)
    rows = None
    for attempt in range(MAX_RETRIES + 1):
        bound = 10 ** (attempt + 1)
        c = rng.integers(-bound, bound + 1, size=d)
        if not np.any(c):
            continue
        # an integer matrix: each of its d <= MAX_D terms has entries at
        # most 10^9 * MAX_N in size, and 10^9 * 32 * 4096 < 2^53, so
        # float64 holds M exactly
        M = sum(int(c[i]) * B[i + 1] for i in range(d)).astype(np.float64)
        U = _eigenrows_float(M, B, sep_tol=1e-6)
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
    P, exact = _snap_table(rows[order].copy(), s.valencies)
    mults = tuple(multiplicities(P, s.valencies, n))
    if mults[0] != 1 or sum(mults) != n:
        raise MultiplicitySumMismatch(f"multiplicities {list(mults)}, n = {n}")
    return _read_only(EigenTable(P, mults, exact, n, s.valencies))


def distinct_eigenvalue_count(s, union):
    """Exact number of distinct eigenvalues of the union digraph.

    Equals the degree of the minimal polynomial of B_Lambda over Q; the
    B_i are simultaneously diagonalizable for a commutative scheme, so the
    minimal polynomial is squarefree.
    """
    B = intersection_matrices(s)
    return exactla.minpoly_degree(sum(B[i] for i in union_classes(s.d, union)))


def block_sums(e, blocks):
    """Per-row block sums of table e: the complex matrix sums[j, b] and
    forms[j][b], the radical_sum of the entries where every one snapped,
    else None."""
    dp1 = e.d + 1
    sums = np.empty((dp1, len(blocks)), dtype=np.complex128)
    forms = [[None] * len(blocks) for _ in range(dp1)]
    for bi, b in enumerate(blocks):
        sums[:, bi] = e.P[:, list(b)].sum(axis=1)
        for j in range(dp1):
            vals = [e.exact[j][i] for i in b]
            if all(v is not None for v in vals):
                forms[j][bi] = radical_sum(vals)
    return sums, forms


def group_rows(sums, forms):
    """Group the rows of sums whose block sums all agree, in order of
    their first rows; each row joins the first group whose first row it
    agrees with.

    Sums agree exactly when both forms are known, and otherwise within
    CLUSTER_TOL times the largest |sum| (at least 1).  Two rows that do not
    agree but differ nowhere by ten times that or more raise
    ToleranceAmbiguity instead of a grouping.
    """
    tol = CLUSTER_TOL * max(1.0, float(np.abs(sums).max()))
    rows = sums.tolist()
    groups = []
    for j, row in enumerate(rows):
        for g in groups:
            r = g[0]
            window = False
            for b, z in enumerate(row):
                fj, fr = forms[j][b], forms[r][b]
                if fj is not None and fr is not None:
                    if fj != fr:
                        break
                    continue
                gap = abs(z - rows[r][b])
                if gap >= 10 * tol:
                    break
                window = window or gap > tol
            else:
                if window:
                    raise ToleranceAmbiguity(
                        f"rows {r} and {j} have block sums within the ambiguity window"
                    )
                g.append(j)
                break
        else:
            groups.append([j])
    return [tuple(g) for g in groups]


def union_spectrum(e, union):
    """Eigenvalue multiset of a union digraph from the character table.

    Returns [(value, multiplicity), ...] sorted by (re, im) descending:
    one value per group of rows that group_rows forms on the single block
    union, exact where every entry of its first row's sum snapped.
    """
    sums, forms = block_sums(e, [union_classes(e.d, union)])
    spec = []
    for g in group_rows(sums, forms):
        form = forms[g[0]][0]
        z = complex(sums[g[0], 0]) if form is None else radical_sum_to_complex(form)
        spec.append((z, sum(e.multiplicities[j] for j in g)))
    spec.sort(key=lambda vm: (-round(vm[0].real, 9), -round(vm[0].imag, 9)))
    return spec
