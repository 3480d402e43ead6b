import importlib.util
import math
import sys
import types
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from ascheme import _kernels, core, exactla, fusion, generator, spectra, srg
from ascheme.catalog import (
    build_cyclotomic,
    build_product,
    catalog_ids,
    catalog_scheme,
    run_catalog,
)
from ascheme.core import (
    MAX_D,
    MAX_N,
    ColorMatrix,
    Scheme,
    canonical_form,
    merge_classes,
    scheme_from_entries,
    symmetrize,
    union_classes,
)
from ascheme.errors import (
    MalformedHeader,
    MissingRelationIndex,
    NonSquareBody,
    NonzeroDiagonal,
    NormalFormUnreachable,
    OutOfRangeEntry,
    ParseError,
    ToleranceAmbiguity,
    TooLarge,
    TypeUnclassifiable,
)
from ascheme.exact import radical_sum, radical_sum_to_complex
from ascheme.finitefield import _mul
from ascheme.spectra import CLUSTER_TOL, character_table


@pytest.fixture(scope="session")
def catalog():
    """All bundled schemes, built once."""
    return {eid: catalog_scheme(eid) for eid in catalog_ids()}


def fresh_catalog():
    """Every catalog scheme built anew: the session fixture's schemes hold
    memos filled by earlier tests, where a memoized call runs nothing."""
    return [catalog_scheme(eid) for eid in catalog_ids()]


SWEEP_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cyclotomic_sweep.py"


def sweep_schemes():
    """The 174 cyclotomic schemes of scripts/cyclotomic_sweep.py, in its
    order, built anew."""
    spec = importlib.util.spec_from_file_location("cyclotomic_sweep", SWEEP_SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [build_cyclotomic(q, m) for q, m in sweep.sweep_params()]


@pytest.fixture(scope="session")
def tables(catalog):
    """Character tables for every commutative catalog scheme."""
    return {eid: character_table(s) for eid, s in catalog.items() if s.is_commutative}


# the memoized bodies, by the name the tests give them
MEMOIZED = {
    "character_table": spectra.character_table,
    "symmetrize": core._symmetrized,
    "generates": generator.generates,
    "srg_params_from_scheme": srg.srg_params_from_scheme,
    "fuse_direct": fusion._fuse_direct,
}


def trivial_scheme():
    """The one-point scheme (d = 0)."""
    return scheme_from_entries(np.zeros((1, 1), dtype=np.int64), d=0)


def fused_scheme(s, partition):
    """The fused Scheme, built as core._symmetrized builds one: the merged
    coloring paired with the fused tensor."""
    blocks = fusion.canonical_partition(partition, s.d)
    return Scheme(merge_classes(s, blocks), fusion.fuse_direct(s, blocks))


@pytest.fixture(scope="session")
def battery_body_runs():
    """(body name, scheme) for each run of a memoized body during one
    run_catalog(workers=1), which builds its schemes afresh, in call
    order.  A profile hook sees each frame of a body's code, so memo hits,
    which never enter the body, are not counted.  Generation reports are
    made in batches, by generator._reports, for generates and for
    find_generating_unions alike: each union of a batch is listed as one
    "generates" run.  Calls of exactla.solve_exact are listed too, as
    "solve_exact" with the scheme of the batch that made them."""
    names = {
        fn.__wrapped__.__code__: name for name, fn in MEMOIZED.items() if name != "generates"
    }
    reports = generator._reports.__code__
    solve = exactla.solve_exact.__code__
    runs = []

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in names:
            runs.append((names[frame.f_code], frame.f_locals["s"]))
        elif frame.f_code is reports:
            s = frame.f_locals["s"]
            runs.extend(("generates", s) for _ in frame.f_locals["unions"])
        elif frame.f_code is solve:
            runs.append(("solve_exact", frame.f_back.f_locals["s"]))

    sys.setprofile(hook)
    try:
        records = run_catalog(workers=1)
    finally:
        sys.setprofile(None)
    return runs, records


def brute_intersection_numbers(e, d):
    """Reference triple loop, independent of the production kernels."""
    n = e.shape[0]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    cnt = {}
    for x in range(n):
        for y in range(n):
            l = int(e[x, y])
            c = np.zeros((d + 1, d + 1), dtype=np.int64)
            for z in range(n):
                c[int(e[x, z]), int(e[z, y])] += 1
            if l in cnt:
                assert (cnt[l] == c).all()
            else:
                cnt[l] = c
    for l, c in cnt.items():
        p[:, :, l] = c
    return p


def run_kernel(e, d, kernels=_kernels):
    """`kernels.tensor_and_verify` on a coloring that passes axiom (3),
    with the transpose map read at each color's first arc."""
    t = np.ascontiguousarray(e.T).ravel()[_kernels.first_arcs(e, d)]
    return kernels.tensor_and_verify(e, d, t)


def corrupted_ladder_961():
    """(e, d): cyclotomic(31,2) x cyclotomic(31,2) (n = 961, d = 8) with
    arc (500, 17) and its reverse recolored, so axiom (3) still holds and
    axiom (4) fails."""
    c = build_cyclotomic(31, 2)
    s = build_product(c, c, "direct")
    e, t = s.color.entries.copy(), s.transpose_map
    b = 1 + int(e[500, 17]) % s.d
    e[500, 17], e[17, 500] = b, t[b]
    return e, s.d


def scan_tensor_and_verify(e, d):
    """Reference scan-order kernel: (p, ok, witness) as `tensor_and_verify`
    returns them, from a plain triple loop over (x, y) row-major.

    The first pair of each color fixes its histogram; the first later pair
    whose histogram differs, at the first color pair (a, b) that differs,
    is the witness (i, j, l, x1, y1, count1, x2, y2, count2).
    """
    n = e.shape[0]
    m = d + 1
    p = np.full((m, m, m), -1, dtype=np.int64)
    first = {}
    wit = np.full(9, -1, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            l = int(e[x, y])
            cnt = np.zeros((m, m), dtype=np.int64)
            for z in range(n):
                cnt[int(e[x, z]), int(e[z, y])] += 1
            if l not in first:
                first[l] = (x, y)
                p[:, :, l] = cnt
                continue
            for a in range(m):
                for b in range(m):
                    if p[a, b, l] != cnt[a, b]:
                        wit[:] = (a, b, l, *first[l], p[a, b, l], x, y, cnt[a, b])
                        return p, False, wit
    return p, True, wit


def compile_stripped(module):
    """A fresh copy of an ascheme module compiled with optimize=1, which
    strips assert statements as python -O does.  Its functions read their
    globals from the copy, so tests can patch names on it alone."""
    path = Path(module.__file__)
    stripped = types.ModuleType(module.__name__ + "_stripped")
    stripped.__package__ = "ascheme"
    exec(compile(path.read_text(), str(path), "exec", optimize=1), vars(stripped))
    return stripped


# --- GF(p^k) arithmetic on encoded elements, for the field tests -----------


def field_add(F, a, b):
    out, pw = 0, 1
    for _ in range(F.k):
        out += ((a + b) % F.p) * pw
        a //= F.p
        b //= F.p
        pw *= F.p
    return out


def field_neg(F, a):
    out, pw = 0, 1
    for _ in range(F.k):
        out += ((-a) % F.p) * pw
        a //= F.p
        pw *= F.p
    return out


def field_sub(F, a, b):
    return field_add(F, a, field_neg(F, b))


def field_mul(F, a, b):
    return _mul(a, b, F.p, F.k, F.modulus[::-1])


# --- scheme files, line by line: oracles for core's numpy text codec -------


def _reference_validate_entries(arr, d, row_loc):
    n = arr.shape[0]
    if n > MAX_N:
        raise TooLarge(f"n = {n} exceeds the supported maximum {MAX_N}")
    if d > MAX_D:
        raise TooLarge(f"d = {d} exceeds the supported maximum {MAX_D}")
    if n > 1 and d < 1:
        raise OutOfRangeEntry("d must be at least 1 for n > 1")
    diag = np.diagonal(arr)
    bad = np.flatnonzero(diag != 0)
    if bad.size:
        r = int(bad[0])
        raise NonzeroDiagonal(
            f"diagonal entry {int(diag[r])} must be 0", line=row_loc(r), col=r
        )
    off = arr.copy()
    np.fill_diagonal(off, 1 if d >= 1 else 0)
    bad_mask = (off < 1) | (off > d) if d >= 1 else (off != 0)
    if bad_mask.any():
        r, c = np.argwhere(bad_mask)[0]
        raise OutOfRangeEntry(
            f"entry {int(arr[r, c])} outside 0..{d}", line=row_loc(int(r)), col=int(c)
        )
    counts = np.bincount(arr.ravel().astype(np.intp, copy=False), minlength=d + 1)
    if not counts.all():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise MissingRelationIndex(f"relation index {missing} never occurs")


def reference_parse_scheme_file(text):
    """The scheme file parser that reads every entry with int(), row by row."""
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((num, body))
    if not lines:
        raise MalformedHeader("empty input")
    hnum, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedHeader(f"header must be 'n d', got {header!r}", line=hnum)
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeader(f"header must be two integers, got {header!r}", line=hnum)
    if n < 1 or d < 0:
        raise MalformedHeader(f"header values out of range: n={n} d={d}", line=hnum)
    body = lines[1:]
    if len(body) != n:
        raise NonSquareBody(
            f"expected {n} rows, got {len(body)}", line=body[-1][0] if body else hnum
        )
    rows = []
    row_lines = []
    for num, line in body:
        toks = line.split()
        if len(toks) != n:
            raise NonSquareBody(f"expected {n} entries, got {len(toks)}", line=num)
        try:
            rows.append([int(tk) for tk in toks])
        except ValueError:
            raise ParseError("non-integer entry", line=num)
        row_lines.append(num)
    arr = np.array(rows, dtype=np.int64)
    _reference_validate_entries(arr, d, row_loc=lambda r: row_lines[r])
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    arr.setflags(write=False)
    return ColorMatrix(arr, d)


def reference_emit_scheme_file(s):
    """The scheme file writer that formats every entry with str()."""
    canon, _ = canonical_form(s)
    e = canon.color.entries
    out = [f"{canon.n} {canon.d}"]
    out.extend(" ".join(str(int(v)) for v in row) for row in e)
    return "\n".join(out) + "\n"


# --- character tables in software floats: a reference for spectra -----------


def reference_eigenrows_mp(s):
    """The rows of s's character table, in no fixed order, from mpmath's
    eigenvectors at 34 significant digits: the left eigenrows of a random
    integer combination of the regular representation's matrices, each
    scaled to first coordinate 1."""
    B = spectra.intersection_matrices(s)
    c = np.random.default_rng(1).integers(-10, 11, size=s.d)
    M = sum(int(ci) * b for ci, b in zip(c, B[1:]))
    m = s.d + 1
    with mp.workdps(34):
        _, ER = mp.eig(mp.matrix(M.T.tolist()), left=False, right=True)
        return np.array(
            [[complex(ER[r, j] / ER[0, j]) for r in range(m)] for j in range(m)]
        )


# --- the comparison loops that spectra.group_rows replaced: references -----


def _table_tol(values):
    return CLUSTER_TOL * max(1.0, float(np.abs(values).max()))


def _entries_equal(e, r1, c1, r2, c2, tol):
    a, b = e.exact[r1][c1], e.exact[r2][c2]
    if a is not None and b is not None:
        return a == b
    return abs(e.P[r1, c1] - e.P[r2, c2]) <= tol


def _pattern_fits(e, row_perm, col_perm, tol):
    d = e.d
    for pos in range(1, d + 1):
        c = col_perm[pos]
        dev = row_perm[pos]
        others = [row_perm[q] for q in range(1, d + 1) if q != pos]
        for r1 in others[1:]:
            if not _entries_equal(e, others[0], c, r1, c, tol):
                return False
        if others and _entries_equal(e, others[0], c, dev, c, tol):
            return False  # a_i = b_i not allowed
    return True


def reference_normal_form_perms(e, fix_last_col=None):
    """(row_perm, col_perm) of the amorphic normal form by brute force over
    both permutations, the lexicographically first that fits, or
    NormalFormUnreachable.  (d!)^2 fits: for small d only."""
    d = e.d
    tol = _table_tol(e.P)
    rows = [(0,) + rp for rp in permutations(range(1, d + 1))]
    for cp in permutations(range(1, d + 1)):
        if fix_last_col is not None and cp[-1] != fix_last_col:
            continue
        for rp in rows:
            if _pattern_fits(e, rp, (0,) + cp, tol):
                return rp, (0,) + cp
    raise NormalFormUnreachable("no row/column permutation reaches the amorphic shape")


def reference_vote_perms(e, fix_last_col=None):
    """(row_perm, col_perm) of the amorphic normal form by a per-column
    vote: each row joins the first earlier row of equal entry."""
    d = e.d
    tol = _table_tol(e.P)
    row_of = {}
    for c in range(1, d + 1):
        votes = {}
        for r in range(1, d + 1):
            key = next((k for k in votes if _entries_equal(e, r, c, k, c, tol)), r)
            votes.setdefault(key, []).append(r)
        singles = [rs for rs in votes.values() if len(rs) == 1]
        majors = [rs for rs in votes.values() if len(rs) == d - 1]
        if len(singles) != 1 or len(majors) != 1:
            raise NormalFormUnreachable(f"column {c} lacks a unique deviating entry")
        row_of[c] = singles[0][0]
    if sorted(row_of.values()) != list(range(1, d + 1)):
        raise NormalFormUnreachable("deviant rows do not form a bijection")
    cp = (0,) + tuple(c for c in range(1, d + 1) if c != fix_last_col)
    if fix_last_col is not None:
        cp += (fix_last_col,)
    rp = (0,) + tuple(row_of[c] for c in cp[1:])
    if not _pattern_fits(e, rp, cp, tol):
        raise NormalFormUnreachable("no row/column permutation reaches the amorphic shape")
    return rp, cp


def reference_union_spectrum(e, union):
    """union_spectrum by clustering each row sum into the first cluster
    within tolerance, then a pairwise check of the cluster values."""
    cols = union_classes(e.d, union)
    sums = e.P[:, list(cols)].sum(axis=1)
    forms = []
    for j in range(e.d + 1):
        vals = [e.exact[j][i] for i in cols]
        forms.append(radical_sum(vals) if all(v is not None for v in vals) else None)
    tol = _table_tol(sums)
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
                raise ToleranceAmbiguity("union spectrum values too close to separate")
    clusters.sort(key=lambda cl: (-round(cl[0].real, 9), -round(cl[0].imag, 9)))
    return [(cl[0], cl[2]) for cl in clusters]


def _reference_group_rows(sums, forms, tol):
    """Rows grouped by signature, each compared with every earlier group's
    first row until one agrees; a float near miss that no block separates
    decisively raises."""
    dp1, nb = sums.shape
    groups = []
    for j in range(dp1):
        hit = None
        for g in groups:
            r = g[0]
            agree = True
            near_miss = False
            for b in range(nb):
                if forms[j][b] is not None and forms[r][b] is not None:
                    if forms[j][b] != forms[r][b]:
                        agree = False
                        break
                else:
                    gap = abs(sums[j, b] - sums[r, b])
                    if gap <= tol:
                        continue
                    agree = False
                    if gap < 10 * tol:
                        near_miss = True
                    break
            if agree:
                hit = g
                break
            if near_miss:
                decisive = any(
                    abs(sums[j, b] - sums[r, b]) >= 10 * tol
                    or (
                        forms[j][b] is not None
                        and forms[r][b] is not None
                        and forms[j][b] != forms[r][b]
                    )
                    for b in range(nb)
                )
                if not decisive:
                    raise ToleranceAmbiguity(f"rows {r} and {j} within the window")
        if hit is None:
            groups.append([j])
        else:
            hit.append(j)
    return [tuple(g) for g in groups]


def reference_row_map(x):
    """The rows of x's table fusing to each symmetrization row: x's rows
    grouped on the symmetrization's classes, then each group's sums
    matched to the one symmetrization row within tolerance (a second row
    within ten times it raises)."""
    sym, corr = symmetrize(x)
    x_t, sym_t = character_table(x), character_table(sym)
    blocks = [[i for i in range(x.d + 1) if corr[i] == c] for c in range(sym.d + 1)]
    sums, forms = spectra.block_sums(x_t, blocks)
    groups = _reference_group_rows(sums, forms, _table_tol(sums))
    assert len(groups) == sym.d + 1 and groups[0] == (0,)
    tol = _table_tol(sym_t.P)
    row_map = [None] * (sym.d + 1)
    for g in groups:
        dists = np.abs(sym_t.P - sums[g[0]][None, :]).max(axis=1)
        near = np.flatnonzero(dists <= 10 * tol)
        if len(near) != 1 or dists[near[0]] > tol:
            raise ToleranceAmbiguity(f"fused row group {g} matches {len(near)} rows")
        assert row_map[near[0]] is None
        row_map[near[0]] = g
    return tuple(row_map)


def reference_skew_split(x):
    """For a skew 4-class x with pairs (1, 2), (3, 4): the x rows nearest to
    symmetrization rows 1 and 2 by their pair sums."""
    x_t = character_table(x)
    sym, corr = symmetrize(x)
    sym_t = character_table(sym)
    cA, cB = corr[1], corr[3]
    tol = 1e-9 * max(1.0, float(np.abs(x_t.P).max()))
    fused = np.stack([x_t.P[:, 1] + x_t.P[:, 2], x_t.P[:, 3] + x_t.P[:, 4]], axis=1)
    target = np.stack([sym_t.P[1:, cA], sym_t.P[1:, cB]], axis=1)
    rows_of = {1: [], 2: []}
    for j in range(1, 5):
        dist = np.abs(fused[j] - target).max(axis=1)
        w = int(np.argmin(dist))
        if dist[w] > tol or dist[1 - w] < 10 * tol:
            raise TypeUnclassifiable(f"x row {j} does not match a unique symmetrization row")
        rows_of[w + 1].append(j)
    return tuple(rows_of[1]), tuple(rows_of[2])


# --- generation: the list-based pipeline that generator.generates replaced ---


def _reference_echelon_insert(basis, vec):
    """Fraction-scaled echelon step: every entry becomes a Fraction, the
    vector is scaled to integers, then reduced by integer cross-multiplying
    with row-gcd division."""
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


def reference_int_matmul(A, B):
    """Product of two square matrices given as lists of lists of ints."""
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def reference_matrix_powers(B, tmax):
    """[B^0, ..., B^tmax] as lists of lists of Python ints."""
    n = len(B)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(tmax):
        powers.append(reference_int_matmul(powers[-1], B))
    return powers


def reference_minpoly_degree(B):
    """Minimal-polynomial degree from fresh powers, one matmul per step."""
    basis = {}
    cur = [[int(i == j) for j in range(len(B))] for i in range(len(B))]
    deg = 0
    while _reference_echelon_insert(basis, [x for row in cur for x in row]):
        deg += 1
        cur = reference_int_matmul(cur, B)
    return deg


def reference_solve_exact(A, rhs):
    """Fraction Gauss-Jordan over A with every right-hand side appended."""
    m, k = len(A), len(A[0])
    aug = [
        [Fraction(x) for x in row] + [Fraction(b[i]) for b in rhs]
        for i, row in enumerate(A)
    ]
    pivots = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, m) if aug[i][c]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
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


# --- generation: the n x n modular witness check ---------------------------
#
# generator.generates proves each witness on the regular representation
# alone.  This oracle proves it on the n x n adjacency matrices themselves,
# from the coloring, with no use of the tensor: sum_t c_t A^t == A_i,
# checked modulo enough primes that the Chinese remainder bound makes the
# check exact.

# Largest primes below 2^27.  Two bounds keep the check exact for
# n <= MAX_N: n * p < 2^53, so each float64 product of a power (residues
# below p) with the 0/1 adjacency matrix sums at most n terms below p; and
# (MAX_D + 1) * p^2 < 2^63, so the int64 combination of d + 1 residue
# products with residue coefficients cannot overflow.
WITNESS_PRIMES = (
    134217689, 134217649, 134217617, 134217613, 134217593, 134217541,
    134217529, 134217509, 134217497, 134217493, 134217487, 134217467,
    134217439, 134217437, 134217409, 134217403, 134217401, 134217367,
    134217361, 134217353, 134217323, 134217301, 134217277, 134217257,
)


class ModularCheckFailed(Exception):
    """The modular oracle refused a witness: i is the first class whose
    polynomial fails modulo some prime, or None when the primes ran out
    below the CRT bound."""

    def __init__(self, message, union, i=None):
        self.union, self.i = tuple(union), i
        super().__init__(f"union {list(self.union)}, class {i}: {message}")


def reference_powers_mod(A, p, count):
    """A^0, ..., A^(count - 1) modulo p as one int64 array, for a 0/1
    float64 matrix A.  The products run on BLAS in float64: a power's
    residues are below p, so every partial sum of a row times a 0/1 column
    is an integer below n * p < 2^53 (see WITNESS_PRIMES) and exact."""
    apow = [np.eye(A.shape[0])]
    for _ in range(count - 1):
        apow.append(np.fmod(apow[-1] @ A, p))
    return np.stack(apow).astype(np.int64)


def reference_check_adjacency(s, union, witness, primes=WITNESS_PRIMES):
    """Check sum_t c_t A^t == A_i on the n x n matrices, for every class i.

    Works modulo the primes in turn, all classes at once.  Every entry of
    A^t is at most k^t (k the union's valency), so the integer difference
    den * (sum_t c_t A^t - A_i) is bounded by
    M = max_i (den_i + sum_t |den_i c_t| k^t).  Once the product of the
    primes used exceeds 2M, agreement modulo each prime proves equality.
    Returns the number of primes used; raises ModularCheckFailed.
    """
    A = s.adjacency(union).astype(np.float64)
    k = sum(s.valencies[i] for i in union)
    scaled = []
    for poly in witness:
        den = math.lcm(*(c.denominator for c in poly))
        scaled.append((den, [c.numerator * (den // c.denominator) for c in poly]))
    bound = 2 * max(
        den + sum(abs(c) * k**t for t, c in enumerate(coef)) for den, coef in scaled
    )
    classes = np.arange(len(witness))[:, None, None]
    target = s.color.entries[None, :, :] == classes
    modulus = 1
    for used, p in enumerate(primes, 1):
        coef = np.array([[c % p for c in cs] for _, cs in scaled], dtype=np.int64)
        dens = np.array([den % p for den, _ in scaled], dtype=np.int64)
        got = np.tensordot(coef, reference_powers_mod(A, p, len(witness)), axes=1) % p
        bad = np.flatnonzero((got != target * dens[:, None, None]).any(axis=(1, 2)))
        if bad.size:
            raise ModularCheckFailed(f"fails modulo {p}", union, int(bad[0]))
        modulus *= p
        if modulus > bound:
            return used
    raise ModularCheckFailed(f"{len(primes)} primes do not reach the CRT bound {bound}", union)


def reference_generates(s, union, adjacency=True):
    """The GenerationReport of generator.generates from the list-based
    pipeline: powers built twice in pure-Python products, a Fraction
    echelon and solve, and a per-entry regular-representation check.  For
    n <= WITNESS_MAX_N the witnesses are also proven on the n x n adjacency
    matrices by the modular oracle, unless adjacency is false."""
    u = union_classes(s.d, union)
    d = s.d
    B = [b.tolist() for b in spectra.intersection_matrices(s)]
    BL = [[sum(B[i][r][c] for i in u) for c in range(d + 1)] for r in range(d + 1)]
    eigen_count = reference_minpoly_degree(BL)
    powers = reference_matrix_powers(BL, d)
    K = [[powers[t][r][0] for t in range(d + 1)] for r in range(d + 1)]
    basis = {}
    span_rank = sum(_reference_echelon_insert(basis, row) for row in K)
    assert eigen_count == span_rank
    gen = eigen_count == d + 1
    witness = None
    verified = False
    if gen:
        units = [[int(r == i) for r in range(d + 1)] for i in range(d + 1)]
        witness = tuple(tuple(sol) for sol in reference_solve_exact(K, units))
        for i, poly in enumerate(witness):
            den = math.lcm(*(c.denominator for c in poly))
            coef = [c.numerator * (den // c.denominator) for c in poly]
            for r in range(d + 1):
                for c in range(d + 1):
                    acc = sum(ct * P[r][c] for ct, P in zip(coef, powers))
                    assert acc == den * B[i][r][c]
        if s.n <= generator.WITNESS_MAX_N:
            if adjacency:
                reference_check_adjacency(s, u, witness)
            verified = True
    return generator.GenerationReport(u, eigen_count, span_rank, gen, witness, verified)
