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
symmetrization, T4.1's test of whether an entry is real and union_spectra
(the rows grouped on the one block Lambda) all call it.  The exact sums
are integers: each table keeps, from its first block_sums call, one int64
array of four times its snapped entries on the basis 1, sqrt(v_1),
sqrt(v_2), ... (EigenTable.quarters), and the exact block sums of any
partition are one product of that array with the 0/1 block indicators.

Both routines take a stack: block_sums sums a list of block lists at
once, padded with empty blocks, and group_rows groups the rows of each
entry from one comparison of every pair of rows in every block
(pair_tests).  A single block list or table is a stack of one.

Counting distinct eigenvalues of a union digraph never relies on floats.
generator.generates decides generation from the rank of a Krylov matrix.
The tests keep an independent exact oracle for the same count, the degree
of the minimal polynomial of the integer matrix B_Lambda, the sum of the
B_i over the union, over Q.  union_spectrum, read from the table, is a
float cross-check of both, not a decision procedure.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import memoized, union_classes
from .errors import (
    EigenSeparationFailure,
    EntryNotQuarterIntegral,
    MultiplicityNotIntegral,
    MultiplicitySumMismatch,
    NonCommutative,
    ToleranceAmbiguity,
)
from .exact import (
    QuadVal,
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

    @cached_property
    def quarters(self):
        """(radicands, X, floating): the snapped entries as integers, built
        on first use and kept with the table, read-only as its P.

        radicands lists the v of the quadratic entries, ascending.  For the
        entry q + r*sqrt(v) in row j and column i, X[j, 0, i] = 4q and
        X[j, 1 + radicands.index(v), i] = 4r; every other coordinate is 0,
        and floating[j, i] is 1 where the entry did not snap.  A snapped
        entry is (u +- sqrt(w))/2 with u and w of denominator at most 2
        (exact.snap_quadratic_pair), so 4q and 4r are integers; an entry
        that breaks this raises EntryNotQuarterIntegral.  |q| and |r| are
        at most the class valency, as |p_i(j)| <= k_i, so a sum of a row's
        coordinates is far inside int64.
        """
        dp1 = self.d + 1
        radicands = sorted({v.v for row in self.exact for v in row if v is not None and v.r})
        slot = {v: k for k, v in enumerate(radicands, 1)}
        X = np.zeros((dp1, len(radicands) + 1, dp1), dtype=np.int64)
        floating = np.zeros((dp1, dp1), dtype=np.int64)
        for j, row in enumerate(self.exact):
            for i, val in enumerate(row):
                if val is None:
                    floating[j, i] = 1
                    continue
                X[j, 0, i] = _quarter(val.q, j, i, val)
                if val.r:
                    X[j, slot[val.v], i] = _quarter(val.r, j, i, val)
        X.setflags(write=False)
        floating.setflags(write=False)
        return tuple(radicands), X, floating


def _quarter(x, j, i, val):
    """4x for a rational x of the entry val at (j, i), as an int, made
    without building a Fraction."""
    num, den = 4 * x.numerator, x.denominator
    if num % den:
        raise EntryNotQuarterIntegral(j, i, val)
    return num // den


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


def block_sums(e, stack, basis=None):
    """Per-row block sums of table e for each block list of stack, padded
    with empty blocks to the longest: the complex sums[k, j, b] and the
    int64 keys[k, j, b], one vector per sum.

    sums[k, :, b] is P[:, block].sum(axis=1) for block b of stack[k], to
    the last bit.  A key is four times the exact sum in coordinates: the
    rational part, then the coefficient of sqrt(v) for each radicand v of
    basis (e's own, ascending, by default; it must hold them), then the
    number of the block's entries that did not snap.  A sum is exact where
    that count is 0, and two exact sums are equal, across tables too when
    both keys are on one basis, exactly when their keys are: distinct
    squarefree radicands are linearly independent over Q.  key_form
    writes a key as the sum's radical form scaled by 4.  The keys of the
    whole stack are one int64 product of e.quarters with the 0/1 block
    indicators.
    """
    radicands, X, floating = e.quarters
    basis = radicands if basis is None else tuple(basis)
    m = e.d + 1
    nb = max(map(len, stack), default=0)
    width = max((len(b) for blocks in stack for b in blocks), default=0)
    pad = [m] * width
    # cols[k, b]: block b's classes, padded with m, a column of zeros
    cols = np.array(
        [
            [(list(b) + pad)[:width] for b in blocks] + [pad] * (nb - len(blocks))
            for blocks in stack
        ],
        dtype=np.intp,
    ).reshape(len(stack), nb, width)
    member = (cols[..., None] == np.arange(m)).any(axis=2).astype(np.int64).transpose(0, 2, 1)
    padded = np.zeros((m, m + 1), dtype=np.complex128)
    padded[:, :m] = e.P
    # summed over the last axis, the trailing zeros leave every bit as is
    sums = padded[:, cols].sum(axis=-1).transpose(1, 0, 2)
    on_basis = np.zeros((m, len(basis) + 1, m), dtype=np.int64)
    on_basis[:, [0] + [1 + basis.index(v) for v in radicands]] = X
    coords = (on_basis.reshape(-1, m) @ member).reshape(len(stack), m, -1, nb)
    keys = np.concatenate([coords, (floating @ member)[:, :, None]], axis=2)
    return sums, keys.transpose(0, 1, 3, 2)


def key_form(basis, key):
    """The exact sum of a block_sums key on basis as the integer form
    (a, ((v, c), ...)): a plus the sum of c * sqrt(v) over the radicands
    with c nonzero, ascending, all four times the sum; None where an entry
    did not snap.  radical_sum_to_complex(form, den=4) evaluates it."""
    *coords, unknown = (int(c) for c in key)
    if unknown:
        return None
    return coords[0], tuple((v, c) for v, c in zip(basis, coords[1:]) if c)


def pair_tests(sums, keys):
    """For each stack entry, pair of rows and block: whether the two sums
    differ decisively, and whether they lie in the ambiguity window.

    Two exact sums differ decisively iff their keys do.  Otherwise the
    gap decides at CLUSTER_TOL times the entry's largest |sum| (at least
    1): decisively at ten times that or more, and inside the window above
    it and below ten times it.
    """
    scale = np.abs(sums).max(axis=(1, 2), initial=1.0)
    tol = (CLUSTER_TOL * scale)[:, None, None, None]
    known = keys[..., -1] == 0
    both = known[:, :, None] & known[:, None]
    gap = np.abs(sums[:, :, None] - sums[:, None])
    differ = (keys[:, :, None] != keys[:, None]).any(axis=-1)
    return np.where(both, differ, gap >= 10 * tol), ~both & (gap > tol)


def group_rows(sums, keys, tests=None):
    """Group the rows of each stack entry of block_sums' (sums, keys)
    whose block sums all agree, in order of their first rows; each row
    joins the first group whose first row it agrees with.

    Two rows agree when no block sum differs decisively and none lies in
    the window: pair_tests(sums, keys), or tests where the caller has
    made them already.  Two rows that differ in no block decisively, but
    in some inside the window, raise ToleranceAmbiguity instead of a
    grouping.  Returns one grouping per stack entry.
    """
    decisive, window = pair_tests(sums, keys) if tests is None else tests
    # 0: the rows differ, 1: they agree, 2: they are ambiguous
    state = np.where(decisive.any(axis=-1), 0, 1 + window.any(axis=-1)).tolist()
    out = []
    for pairs in state:
        groups = []
        for j, row in enumerate(pairs):
            for g in groups:
                if row[g[0]] == 2:
                    raise ToleranceAmbiguity(
                        f"rows {g[0]} and {j} have block sums within the ambiguity window"
                    )
                if row[g[0]]:
                    g.append(j)
                    break
            else:
                groups.append([j])
        out.append([tuple(g) for g in groups])
    return out


def union_spectra(e, unions):
    """Eigenvalue multisets of union digraphs from the character table,
    one per union, from one block_sums and one group_rows call.

    Each is [(value, multiplicity), ...] sorted by (re, im) descending:
    one value per group of rows that group_rows forms on the single block
    union, evaluated from the exact sum where its first row's sum is
    exact.
    """
    radicands = e.quarters[0]
    sums, keys = block_sums(e, [[union_classes(e.d, u)] for u in unions])
    out = []
    for k, groups in enumerate(group_rows(sums, keys)):
        spec = []
        for g in groups:
            form = key_form(radicands, keys[k, g[0], 0])
            z = complex(sums[k, g[0], 0]) if form is None else radical_sum_to_complex(form, den=4)
            spec.append((z, sum(e.multiplicities[j] for j in g)))
        spec.sort(key=lambda vm: (-round(vm[0].real, 9), -round(vm[0].imag, 9)))
        out.append(spec)
    return out


def union_spectrum(e, union):
    """The eigenvalue multiset of one union digraph: union_spectra of one."""
    return union_spectra(e, [union])[0]
