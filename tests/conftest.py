import sys
import types
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from ascheme import _kernels, core, exactla, fusion, generator, spectra, srg
from ascheme.catalog import catalog_ids, catalog_scheme, run_catalog
from ascheme.core import (
    MAX_D,
    MAX_N,
    ColorMatrix,
    Scheme,
    canonical_form,
    merge_classes,
    scheme_from_entries,
)
from ascheme.errors import (
    MalformedHeader,
    MissingRelationIndex,
    NonSquareBody,
    NonzeroDiagonal,
    NormalFormUnreachable,
    OutOfRangeEntry,
    ParseError,
    TooLarge,
)
from ascheme.finitefield import _mul
from ascheme.spectra import CLUSTER_TOL, character_table


@pytest.fixture(scope="session")
def catalog():
    """All bundled schemes, built once."""
    return {eid: catalog_scheme(eid) for eid in catalog_ids()}


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
    "fuse_direct": fusion.fuse_direct,
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
    which never enter the body, are not counted.  Calls of
    exactla.solve_exact are listed too, as "solve_exact" with the scheme
    of the generates body that made them."""
    names = {fn.__wrapped__.__code__: name for name, fn in MEMOIZED.items()}
    solve = exactla.solve_exact.__code__
    runs = []

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in names:
            runs.append((names[frame.f_code], frame.f_locals["s"]))
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


def reference_normal_form_perms(e, fix_last_col=None):
    """(row_perm, col_perm) of the amorphic normal form by brute force over
    both permutations, the lexicographically first that fits, or
    NormalFormUnreachable.  (d!)^2 fits: for small d only."""
    d = e.d
    tol = CLUSTER_TOL * max(1.0, float(np.abs(e.P).max()))
    rows = [(0,) + rp for rp in permutations(range(1, d + 1))]
    for cp in permutations(range(1, d + 1)):
        if fix_last_col is not None and cp[-1] != fix_last_col:
            continue
        for rp in rows:
            if fusion._pattern_fits(e, rp, (0,) + cp, tol):
                return rp, (0,) + cp
    raise NormalFormUnreachable("no row/column permutation reaches the amorphic shape")
