import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import _kernels, exactla
from ascheme.builders import complete_scheme
from ascheme.catalog import build_cyclotomic, build_product, catalog_scheme
from ascheme.core import MAX_D, MAX_N, verify_axioms
from ascheme.errors import ViolationNotReproduced

from conftest import (
    brute_intersection_numbers,
    compile_stripped,
    corrupted_ladder_961,
    reference_certificate,
    run_kernel,
    scan_tensor_and_verify,
    thin_s3,
    transpose_at_first_arcs,
)


def pentagon_colors():
    e = np.zeros((5, 5), dtype=np.int32)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            e[i, j] = 1 if (j - i) % 5 in (1, 4) else 2
    return e


def test_pair_counts_matches_brute():
    e = pentagon_colors()
    for x in range(5):
        for y in range(5):
            c = np.zeros((3, 3), dtype=np.int64)
            for z in range(5):
                c[e[x, z], e[z, y]] += 1
            assert (_kernels.pair_counts(e, x, y, 2) == c).all()


def test_tensor_matches_brute_loop():
    e = pentagon_colors()
    p, ok, _ = run_kernel(e, 2)
    assert ok
    assert (p == brute_intersection_numbers(e, 2)).all()


def test_backends_agree_on_valid_schemes(catalog):
    for eid in ("cyclo-13-4", "schurian-z4", "wreath-qr3-qr3", "petersen"):
        e = catalog[eid].color.entries
        d = catalog[eid].d
        p1, ok1, w1 = run_kernel(e, d)
        p2, ok2, w2 = scan_tensor_and_verify(e, d)
        assert ok1 and ok2
        assert (p1 == p2).all()


def test_backends_agree_on_violation_witness():
    # perturb one entry of a valid coloring; the kernel must report the
    # reference loop's first-violation witness in row-major scan order
    e = build_cyclotomic(13, 2).color.entries.copy()
    e[3, 7] = 1 if e[3, 7] == 2 else 2
    e[7, 3] = e[3, 7]
    p1, ok1, w1 = run_kernel(e, 2)
    p2, ok2, w2 = scan_tensor_and_verify(e, 2)
    assert not ok1 and not ok2
    assert (w1 == w2).all()


def test_numpy_counts_are_exact_integers():
    # packed-digit products in float64 must reproduce integer counts exactly
    e = build_cyclotomic(257, 2).color.entries
    p, ok, _ = run_kernel(e, 2)
    assert ok
    assert p.sum(axis=(0, 1)).tolist() == [257] * 3


def test_vanishing_violation_raises():
    # a recount that clears the violating pair is a kernel defect, not a verdict
    e = build_cyclotomic(13, 2).color.entries.copy()
    e[3, 7] = 1 if e[3, 7] == 2 else 2
    e[7, 3] = e[3, 7]
    stripped = compile_stripped(_kernels)

    def recount_at_first_arc(e, x, y, d):
        fx, fy = divmod(int(np.argmax(e.ravel() == e[x, y])), e.shape[0])
        return _kernels.pair_counts(e, fx, fy, d)

    stripped.pair_counts = recount_at_first_arc
    with pytest.raises(ViolationNotReproduced):
        run_kernel(e, 2, stripped)


def _plan(e, d):
    """The kernel's products for a coloring that passes axiom (3): without
    the derived color's cells when every row's counts equal row 0's."""
    counts = _kernels.row_counts(e, d)
    t = transpose_at_first_arcs(e, d)
    rows = counts.max(axis=0).tolist()
    c = _kernels.derived_color(rows) if (counts == counts[0]).all() else None
    return _kernels.plan(rows, t.tolist(), c)


def _made(products):
    """The cells (a, b) that some product makes directly."""
    return {(a, b) for left, right, _, _ in products for a in left for b in right}


SMALL_CYCLOTOMICS = [(3, 2), (4, 3), (5, 2), (5, 4), (7, 2), (7, 3), (8, 7), (9, 4)]
# factor pairs whose products have n <= 40, so the scan oracle stays
# quick, and d <= MAX_D
FACTOR_PAIRS = [
    (f, g)
    for f in SMALL_CYCLOTOMICS
    for g in SMALL_CYCLOTOMICS
    if f[0] * g[0] <= 40 and (f[1] + 1) * (g[1] + 1) <= MAX_D + 1
]


@st.composite
def transpose_consistent_colorings(draw):
    """(e, d): a coloring whose classes are closed under transpose and in
    which every color 0..d occurs.  Either the thin scheme of Z_n under a
    vertex permutation (a valid scheme), or random arcs where rows 1..n-1
    lean on color 1 while row 0 spreads its arcs over all colors, so row
    0's counts are no bound on the others', or a direct or wreath product
    of two small cyclotomic schemes under a vertex permutation, valid or
    with one arc pair recolored.  The "wide" kind draws many colors and a
    heavy lean; the "mixed" kind has classes of several valencies, so the
    digits of one product have different radices."""
    kind = draw(st.sampled_from(("thin", "lean", "wide", "mixed")))
    wide = kind == "wide"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mixed":
        f, g = draw(st.sampled_from(FACTOR_PAIRS))
        how = draw(st.sampled_from(("direct", "wreath")))
        s = build_product(build_cyclotomic(*f), build_cyclotomic(*g), how)
        n, d, t = s.n, s.d, s.transpose_map
        vperm = rng.permutation(n)
        e = s.color.entries[np.ix_(vperm, vperm)].astype(np.int64)
        if draw(st.booleans()):
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            c = int(rng.choice([c for c in range(1, d + 1) if c != e[x, y]]))
            e[x, y], e[y, x] = c, t[c]
        return e, d
    n = draw(st.integers(16 if wide else 2, 20))
    if kind == "thin":
        e = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        vperm = rng.permutation(n)
        return e[np.ix_(vperm, vperm)], n - 1
    colors = draw(st.integers(15 if wide else 1, 20))
    lean = draw(st.floats(0.6 if wide else 0.0, 0.95))
    t = np.arange(colors + 1)
    swap = rng.permutation(np.arange(1, colors + 1))[: 2 * draw(st.integers(0, colors // 2))]
    t[swap[0::2]], t[swap[1::2]] = swap[1::2], swap[0::2]
    e = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(x + 1, n):
            if x == 0:
                c = 1 + (y - 1) % colors
            elif rng.random() < lean:
                c = 1
            else:
                c = int(rng.integers(1, colors + 1))
            e[x, y], e[y, x] = c, t[c]
    used = np.unique(e)
    lut = np.zeros(colors + 1, dtype=np.int64)
    lut[used] = np.arange(used.size)
    return lut[e], used.size - 1


@settings(max_examples=60, deadline=None)
@given(transpose_consistent_colorings())
def test_kernel_matches_scan_oracle(case):
    e, d = case
    p1, ok1, w1 = run_kernel(e, d)
    p2, ok2, w2 = scan_tensor_and_verify(e, d)
    assert ok1 == ok2
    if ok1:
        assert (p1 == p2).all()
    else:
        assert (w1 == w2).all()
    # a class absent from row 0 has its first arc in a row whose counts
    # row 0's do not bound
    assert_first_arc_histograms(p1, e, d)


def assert_first_arc_histograms(p, e, d):
    """p holds the histogram at every class's first arc, met or not."""
    n = e.shape[0]
    for l in range(d + 1):
        x, y = divmod(int(np.argmax(e.ravel() == l)), n)
        hist = np.zeros((d + 1, d + 1), dtype=np.int64)
        for z in range(n):
            hist[e[x, z], e[z, y]] += 1
        assert (p[:, :, l] == hist).all()


REJECTED = [
    ("cyclotomic-17-8", lambda: build_cyclotomic(17, 8)),
    ("cyclotomic-49-6", lambda: build_cyclotomic(49, 6)),
    ("cyclotomic-101-4", lambda: build_cyclotomic(101, 4)),
    (
        "wreath-13-2-7-2",
        lambda: build_product(build_cyclotomic(13, 2), build_cyclotomic(7, 2), "wreath"),
    ),
    (
        "wreath-13-12-5-4",
        lambda: build_product(build_cyclotomic(13, 12), build_cyclotomic(5, 4), "wreath"),
    ),
]


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("name, build", REJECTED, ids=[name for name, _ in REJECTED])
def test_kernel_rejects_like_scan_oracle(name, build, seed):
    # 1-3 arcs recolored, each with its reverse.  That changes the counts
    # of their rows, so row 0's histograms decide first, and on all but one
    # case here they find the first violation in row 0 with no product.
    # Otherwise the kernel keeps the full plan, two or more products here,
    # and cuts each to the rows and columns that could hold a violation
    # before the first row x0 whose counts differ from row 0's, at (x0, x0)
    # or earlier
    s = build()
    n, d, t = s.n, s.d, s.transpose_map
    rng = np.random.default_rng([seed, n, d])
    e = s.color.entries.astype(np.int64)
    for _ in range(1 + (seed - 1) % 3):
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        c = int(rng.choice([c for c in range(1, d + 1) if c != e[x, y]]))
        e[x, y], e[y, x] = c, t[c]
    assert len(_plan(e, d)) >= 2
    _check_rejected(e, d)


def test_kernel_rejects_like_scan_oracle_at_n_961():
    e, d = corrupted_ladder_961()
    assert len(_plan(e, d)) >= 2
    _check_rejected(e, d)


def _check_rejected(e, d):
    p1, ok1, w1 = _check_like_scan_oracle(e, d)
    assert not ok1
    return w1


def _check_like_scan_oracle(e, d):
    """The kernel's p, ok and witness, checked against the scan oracle's: the
    same verdict and witness, and the same histogram at the first arc of
    every class the scan met."""
    p1, ok1, w1 = run_kernel(e, d)
    p2, ok2, w2 = scan_tensor_and_verify(e, d)
    assert ok1 == ok2
    assert (w1 == w2).all()
    met = (p2 >= 0).all(axis=(0, 1))
    assert (p1[:, :, met] == p2[:, :, met]).all()
    assert_first_arc_histograms(p1, e, d)
    return p1, ok1, w1


def _switched(s, rng):
    """s's coloring after one rectangle switch: arcs (x, y) and (x2, y2) of
    color a and arcs (x, y2) and (x2, y) of color b trade colors, and each
    reverse arc takes the transpose color.  Every row keeps its counts, and
    axiom (3) still holds.  None if 100 draws find no such rectangle."""
    e, n, t = s.color.entries.astype(np.int64), s.n, s.transpose_map
    for _ in range(100):
        x, x2 = (int(v) for v in rng.choice(n, size=2, replace=False))
        y = int(rng.integers(n))
        a, b = int(e[x, y]), int(e[x2, y])
        ys = np.flatnonzero((e[x] == b) & (e[x2] == a))
        if a and b and a != b and ys.size:
            y2 = int(rng.choice(ys))
            e[x, y] = e[x2, y2] = b
            e[x, y2] = e[x2, y] = a
            e[y, x] = e[y2, x2] = t[b]
            e[y2, x] = e[y, x2] = t[a]
            return e
    return None


def _small_direct():
    """Cyclotomic (7, 2) x cyclotomic (5, 2): n = 35, d = 8, with
    nonsymmetric classes."""
    return build_product(build_cyclotomic(7, 2), build_cyclotomic(5, 2), "direct")


def test_kernel_matches_scan_oracle_on_regular_rows(catalog):
    # rectangle switches keep every row's counts, so the kernel derives one
    # color's cells from row and column sums; the switched colorings have
    # symmetric and nonsymmetric classes and are mostly not schemes.  The
    # derived cells must give the scan oracle's verdict, witness and first-
    # arc histograms, and some witnesses fall on a derived cell
    ladder = [build_cyclotomic(q, m) for q, m in ((101, 2), (241, 6), (256, 5), (257, 2))]
    direct = _small_direct()
    assert not all(direct.symmetric)
    sources = [*(s for s in catalog.values() if s.d >= 2), *ladder, direct]
    rejected = derived_witness = 0
    for k, s in enumerate(sources):
        for seed in range(2 if s.n <= 41 else 1):
            e = _switched(s, np.random.default_rng([seed, k]))
            if e is None:
                continue
            counts = _kernels.row_counts(e, s.d)
            assert (counts == counts[0]).all()
            _, ok, w = _check_like_scan_oracle(e, s.d)
            if not ok:
                rejected += 1
                c = _kernels.derived_color(counts[0].tolist())
                derived_witness += w[1] == c or w[0] == s.transpose_map[c]
    assert rejected >= 70 and derived_witness >= 40


@pytest.mark.parametrize("row", ["first", "last"])
def test_kernel_rejects_like_scan_oracle_from_the_first_irregular_row(catalog, row):
    # one arc pair recolored in row 0, so row 1 is the first whose counts
    # differ from row 0's; or between the last two rows, so the first such
    # row is n - 2.  Row 0's histograms decide all but one case here with
    # no product; that one, on 5 points, falls through to whole products
    pool = [s for s in catalog.values() if s.n >= 5]
    for s in [*pool, build_cyclotomic(101, 2), _small_direct()]:
        n, d, t = s.n, s.d, s.transpose_map
        x, y = (0, 2) if row == "first" else (n - 1, n - 2)
        e = s.color.entries.astype(np.int64)
        b = 1 + int(e[x, y]) % d
        e[x, y], e[y, x] = b, t[b]
        counts = _kernels.row_counts(e, d)
        differs = (counts != counts[0]).any(axis=1)
        if not differs.any():
            continue
        assert int(differs.argmax()) == (1 if row == "first" else n - 2)
        _check_rejected(e, d)


def test_digit_base_bounds_every_row():
    # row 0 holds each color once, so digit bounds taken from row 0 would
    # give cell (1, 1) radix 2, while rows 1..19 hold color 1 eighteen times
    # or more and C_11 reaches 17 there: the kernel's bounds take every row
    # (row 1 holds color 1 nineteen times), and give that cell radix 20
    e = np.zeros((20, 20), dtype=np.int64)
    e[0, 1:], e[1:, 0] = np.arange(1, 20), np.arange(1, 20)
    e[1:, 1:] = 1
    np.fill_diagonal(e, 0)
    t = list(range(20))
    assert int(_kernels.pair_counts(e, 1, 2, 19)[1, 1]) == 17

    def radix_11(rows):
        for left, right, u, v in _kernels.plan(rows, t):
            if 1 in left and 1 in right:
                j = right.index(1)
                return v[j + 1] // v[j]

    assert radix_11(np.bincount(e[0], minlength=20).tolist()) == 2
    assert radix_11(_kernels.row_counts(e, 19).max(axis=0).tolist()) == 20
    p1, ok1, w1 = run_kernel(e, 19)
    p2, ok2, w2 = scan_tensor_and_verify(e, 19)
    assert not ok1 and not ok2
    assert (w1 == w2).all()


def test_product_with_two_digit_groups_matches_brute():
    # the cyclotomic scheme of GF(17) with 8 symmetric classes of valency
    # 2: color 1's cells are derived, the 7 left colors 2..8 form one
    # group, and its 49 cells of radix 3 (78 bits) are cut into blocks of 4
    # and 3 right colors
    s = build_cyclotomic(17, 8)
    e = s.color.entries
    products = _plan(e, s.d)
    assert s.d == 8 and [len(right) for _, right, _, _ in products] == [4, 3]
    assert all(left == tuple(range(2, 9)) for left, _, _, _ in products)
    p, ok, _ = run_kernel(e, s.d)
    assert ok
    assert (p == brute_intersection_numbers(e, s.d)).all()


def test_first_violation_reached_only_through_a_transpose():
    # the Z13 thin scheme wreathed with Z5: d = 16.  The corrupted arc pair
    # makes the first violating pair in scan order differ from its class's
    # first arc only in cells (6, 2) and (6, 4), which no product makes
    # directly: the plan makes only their partners (1, 5) and (3, 5), so
    # the kernel meets the violation only in the transposed scan of a
    # partner product.
    e, d, t = _thin_wreath_corrupted(9, 11, 1)
    assert (t != np.arange(d + 1)).any()
    w = _check_transposed_witness(e, d, t)
    assert tuple(w[6:8]) == (1, 9)


def test_first_violation_reached_only_through_a_transpose_of_a_cut_product(monkeypatch):
    # arc (10, 12) of the scheme above recolored from 3 to 13 instead: row
    # 10 is the first whose counts differ from row 0's, and row 0 shows no
    # violation, so every product is cut to rows and columns < 11.  The
    # first product fails in row 1, so each later one is cut to rows and
    # columns < 2, and the first violating pair (1, 0) differs from its
    # class's first arc only in cells read as transposes
    e, d, t = _thin_wreath_corrupted(10, 12, 13)
    w = _check_transposed_witness(e, d, t)
    assert tuple(w[6:8]) == (1, 0)
    n = e.shape[0]
    products = _spied_kernel(monkeypatch, e, d)[3].products
    assert products[:2] == [(11, n), (n, 11)]
    assert len(products) > 2 and all(min(shape) == 2 for shape in products[2:])


def _thin_wreath_corrupted(x, y, c):
    """The Z13 thin scheme wreathed with Z5, with arc (x, y) recolored c
    and its reverse t[c]."""
    s = build_product(build_cyclotomic(13, 12), build_cyclotomic(5, 4), "wreath")
    e, d, t = s.color.entries.copy(), s.d, np.asarray(s.transpose_map)
    e[x, y], e[y, x] = c, t[c]
    return e, d, t


def _check_transposed_witness(e, d, t):
    """The kernel's witness, checked against the scan oracle's, differs from
    its class's first arc only in cells that no product makes directly."""
    made = _made(_plan(e, d))
    w1 = _check_rejected(e, d)
    x1, y1, x2, y2 = (int(v) for v in w1[[3, 4, 6, 7]])
    cells = np.argwhere(_kernels.pair_counts(e, x2, y2, d) != _kernels.pair_counts(e, x1, y1, d))
    assert len(cells)
    assert all((a, b) not in made and (t[b], t[a]) in made for a, b in cells)
    return w1


@st.composite
def row_bounds_and_transposes(draw):
    """(rows, t): row bounds rows[0..d] of colors that can occur at
    n <= MAX_N, and a transpose map pairing some colors 1..d."""
    d = draw(st.integers(1, MAX_D))
    top = draw(st.integers(1, MAX_N - 1))
    rows = [1] + draw(st.lists(st.integers(1, top), min_size=d, max_size=d))
    t = list(range(d + 1))
    swap = draw(st.permutations(range(1, d + 1)))[: 2 * draw(st.integers(0, d // 2))]
    for a, b in zip(swap[0::2], swap[1::2]):
        t[a], t[b] = b, a
    return rows, t


@settings(max_examples=100, deadline=None)
@given(row_bounds_and_transposes(), st.booleans(), st.randoms(use_true_random=False))
def test_plan_packs_exactly_and_covers_every_cell(case, derive, rnd):
    # with a derived color c, every cell in right color c or left color
    # t[c] comes from the row and column sums
    rows, t = case
    d = len(rows) - 1
    c = _kernels.derived_color(rows) if derive else None
    products = _kernels.plan(rows, t, c)
    for left, right, u, v in products:
        bound = [[min(rows[a], rows[t[b]]) for b in right] for a in left]
        # the largest packed value, every count at its bound, is exact
        top = sum(u[k] * v[j] * bound[k][j] for k in range(len(left)) for j in range(len(right)))
        assert top < u[-1] <= 2**53
        # and counts drawn under their bounds decode back from the packing
        counts = [[rnd.randint(0, c) for c in row] for row in bound]
        packed = sum(u[k] * v[j] * counts[k][j] for k in range(len(left)) for j in range(len(right)))
        decoded = [
            [packed % u[k + 1] // u[k] % v[j + 1] // v[j] for j in range(len(right))]
            for k in range(len(left))
        ]
        assert decoded == counts
    made = _made(products)
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            assert (a, b) in made or (t[b], t[a]) in made or c in (b, t[a])
    if c is not None:
        assert all(b != c and a != t[c] for a, b in made)


def _kernel_peak(e, d):
    """tracemalloc peak of one kernel call, in n x n float64 arrays."""
    tracemalloc.start()
    try:
        _, ok, _ = run_kernel(e, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ok, peak / (8 * e.shape[0] ** 2)


def _ladder_961():
    c = build_cyclotomic(31, 2)
    return build_product(c, c, "direct")


def test_kernel_peak_memory_at_n_961():
    # the kernel once held all d + 1 float64 masks, then two packed blocks
    # beside each product.  Now the intp copy of e and one workspace per
    # call, the two packed operands and the product, are the n x n arrays,
    # and the bool mismatch is written over the right operand once the
    # product is made: 4 arrays, where two packed blocks beside each
    # product made 5.25.  The plan makes 4 products, where one radix for
    # every cell made 10.
    s = _ladder_961()
    e, n, m = s.color.entries, s.n, s.d + 1
    assert (n, m) == (961, 9)
    assert len(_plan(e, s.d)) <= 6
    ok, peak = _kernel_peak(e, s.d)
    assert ok
    assert peak < m
    assert peak < 4.5


def test_kernel_peak_memory_on_reject_at_n_961():
    # row 0's histograms find the violation before the workspace exists:
    # the intp copy of e and the int64 keys are the n x n arrays, where
    # cutting every product in the workspace held 4.  A rejection they miss
    # writes each cut product's rows and columns < r into the same
    # workspace as a whole product, under the valid call's bound
    e, d = corrupted_ladder_961()
    ok, peak = _kernel_peak(e, d)
    assert not ok
    assert peak < 2.5


class _CountingNumpy:
    """numpy, with the shape and multiply-adds of every np.matmul call and
    the number of keys of every np.bincount call counted."""

    def __init__(self):
        self.macs = 0
        self.products = []
        self.bincounts = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y, out=None):
        self.macs += x.shape[0] * x.shape[1] * y.shape[1]
        self.products.append((x.shape[0], y.shape[1]))
        return np.matmul(x, y, out=out)

    def bincount(self, keys, *args, **kwargs):
        self.bincounts.append(np.size(keys))
        return np.bincount(keys, *args, **kwargs)


def _spied_kernel(monkeypatch, e, d):
    """(p, ok, witness, spy) of one kernel call, where spy counted its
    numpy calls; the transpose map is read before, unspied."""
    t = transpose_at_first_arcs(e, d)
    spy = _CountingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "np", spy)
        return (*_kernels.tensor_and_verify(e, d, t), spy)


def _kernel_macs(monkeypatch, e, d):
    """(ok, multiply-adds) of one kernel call, in n x n x n products."""
    _, ok, _, spy = _spied_kernel(monkeypatch, e, d)
    return ok, spy.macs / e.shape[0] ** 3


def test_kernel_work_on_reject_at_n_961(monkeypatch):
    # row 17 is the first whose counts differ from row 0's, and the first
    # violation is in row 0, so row 0's histograms find it and no product
    # is made, where cutting each product to the rows and columns that
    # could hold it took about a twentieth of one, and making every
    # product whole took 5
    e, d = corrupted_ladder_961()
    ok, products = _kernel_macs(monkeypatch, e, d)
    assert not ok
    assert products == 0


def test_kernel_falls_back_to_products_when_row_0_holds(monkeypatch):
    # the thin scheme of GF(17): every class has valency 1, so row 0 holds
    # every class's first arc and can show no violation.  One arc pair
    # recolored away from row and column 0 makes the rows irregular, and
    # the kernel falls through to its products, which find the scan
    # oracle's witness
    s = build_cyclotomic(17, 16)
    n, d, t = s.n, s.d, s.transpose_map
    for seed in range(6):
        rng = np.random.default_rng(seed)
        e = s.color.entries.astype(np.int64)
        x, y = (int(v) for v in rng.choice(np.arange(1, n), size=2, replace=False))
        c = int(rng.choice([c for c in range(1, d + 1) if c != e[x, y]]))
        e[x, y], e[y, x] = c, t[c]
        counts = _kernels.row_counts(e, d)
        assert (counts != counts[0]).any()
        w = _check_rejected(e, d)
        assert w[6] == 1
        _, ok, w2, spy = _spied_kernel(monkeypatch, e, d)
        assert spy.products and not ok and (w2 == w).all()


def test_regular_rows_build_no_row_0_histogram(monkeypatch, catalog):
    # every row of a scheme holds k_i arcs of color i, so the row-0 step
    # never runs on one: its bincounts are the row counts, over n^2 keys,
    # and the histograms at the first arcs, over m n keys
    s = _ladder_961()
    monkeypatch.setattr(_kernels, "row_zero_verdict", _refuse_row_zero)
    for e, d in [(s.color.entries, s.d), *((c.color.entries, c.d) for c in catalog.values())]:
        _, ok, _, spy = _spied_kernel(monkeypatch, e, d)
        n = e.shape[0]
        assert ok and spy.bincounts == [n * n, (d + 1) * n] and spy.products


def _refuse_row_zero(*args):
    raise AssertionError("the row-0 step ran on regular rows")


def test_kernel_work_at_n_961(monkeypatch):
    # a valid coloring is certified by one class matrix M, weights 9, 4, 1
    # on three classes of valency 15: one product, M times the right colors
    # but the derived one, packed, where weights a^k took 2 and the plan's
    # 4 products, each made whole, were needed
    s = _ladder_961()
    e, d = s.color.entries, s.d
    ok, products = _kernel_macs(monkeypatch, e, d)
    assert ok
    assert products == 1
    assert len(_plan(e, d)) == 4


def test_verify_axioms_peak_memory_at_n_961():
    # the transpose map's n x n transients are gone before the kernel runs,
    # so the axioms path stays under the kernel's own bound
    s = _ladder_961()
    tracemalloc.start()
    try:
        verify_axioms(s.color)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * s.n**2) < 4.5


def _plan_sizes_under_relabeling(s, seeds):
    """The number of products the kernel makes for s under its own labels
    and under one random class relabeling per seed.  Relabeling the classes
    by sigma moves the row count of a to sigma(a) and turns the transpose
    map t into sigma t sigma^-1, which is what the kernel would read from
    the relabeled coloring; the derived color is then the lowest label of
    largest count under the new labels."""
    rows, t = _kernels.row_counts(s.color.entries, s.d)[0].tolist(), list(s.transpose_map)
    sizes = {len(_kernels.plan(rows, t, _kernels.derived_color(rows)))}
    for seed in seeds:
        sigma = [0, *(1 + np.random.default_rng(seed).permutation(s.d)).tolist()]
        rows2, t2 = [0] * (s.d + 1), [0] * (s.d + 1)
        for a in range(s.d + 1):
            rows2[sigma[a]] = rows[a]
            t2[sigma[a]] = sigma[t[a]]
        sizes.add(len(_kernels.plan(rows2, t2, _kernels.derived_color(rows2))))
    return sizes


def test_plan_size_does_not_depend_on_class_labels(catalog):
    # the catalog and the perfbench ladder's schemes, three relabelings each
    ladder = [build_cyclotomic(q, m) for q, m in ((101, 2), (241, 6), (256, 5), (257, 2))]
    for s in [*catalog.values(), *ladder, _ladder_961()]:
        assert len(_plan_sizes_under_relabeling(s, range(3))) == 1


def test_plan_sizes_of_the_two_wreaths_at_n_2009():
    # cyclotomic (49, 24) wreath (41, 8) has row bounds 2 (x24) and 245
    # (x8); (41, 8) wreath (49, 24) has 5 (x8) and 82 (x24).  They are two
    # schemes, and each keeps its count under relabeling: 23 and 53, where
    # making every cell took 26 and 57
    a, b = build_cyclotomic(49, 24), build_cyclotomic(41, 8)
    assert _plan_sizes_under_relabeling(build_product(a, b, "wreath"), range(3)) == {23}
    assert _plan_sizes_under_relabeling(build_product(b, a, "wreath"), range(3)) == {53}


def test_certificate_sizes_of_the_two_wreaths_at_n_2009(monkeypatch):
    # where the plan makes several products, the certificate takes fewer:
    # 5 against 23 for (49, 24) wreath (41, 8), and 6 against 53 for
    # (41, 8) wreath (49, 24).  The search reads only the first-arc
    # counts, so no product is made here
    a, b = build_cyclotomic(49, 24), build_cyclotomic(41, 8)
    for s, planned, made in [
        (build_product(a, b, "wreath"), 23, 5),
        (build_product(b, a, "wreath"), 53, 6),
    ]:
        p, t, rows, c = _certificate_inputs(s.color.entries, s.d)
        assert len(_kernels.plan(rows, t.tolist(), c)) == planned
        spy = _CountingNumpy()
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "np", spy)
            _, blocks = _kernels.certificate(p, t, rows, c, planned)
        assert len(blocks) == made and spy.products == []


# --- the generation certificate ---------------------------------------------

LADDER_CYCLOTOMICS = [(101, 2), (241, 6), (256, 5), (257, 2)]


def _certificate_inputs(e, d):
    """(p, t, rows, c): the first-arc counts, the transpose map, the row
    counts and the derived color that the kernel hands its certificate, for
    a coloring with regular rows."""
    e = e.astype(np.intp)
    counts = _kernels.row_counts(e, d)
    fx, fy = np.divmod(_kernels.first_arcs(e, counts), e.shape[0])
    rows = counts[0].tolist()
    p = _kernels.first_arc_counts(e, d, fx, fy)
    return p, transpose_at_first_arcs(e, d), rows, _kernels.derived_color(rows)


def _plan_only(monkeypatch, e, d):
    """The kernel's (p, ok, witness) with no certificate: the plan alone."""
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "certificate", lambda *args: None)
        return run_kernel(e, d)


def _forced(monkeypatch, e, d):
    """(p, ok, witness, found) of one kernel call that tries the certificate
    however many products the plan makes; found lists, for each try,
    whether a certificate was found."""
    real, found = _kernels.certificate, []

    def certificate(p, t, rows, c, most):
        cert = real(p, t, rows, c, MAX_D + 1)
        found.append(cert is not None)
        return cert

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "certificate", certificate)
        return (*run_kernel(e, d), found)


def _assert_same(got, want):
    """The same verdict, witness and p."""
    assert got[1] == want[1]
    assert (got[2] == want[2]).all()
    assert (got[0] == want[0]).all()


def _relabeled(s, seed):
    """s's coloring under a seeded vertex permutation and class relabeling,
    as the perfbench ladder makes its inputs."""
    rng = np.random.default_rng(seed)
    vperm = rng.permutation(s.n)
    lut = np.zeros(s.d + 1, dtype=np.int64)
    lut[1:] = 1 + rng.permutation(s.d)
    return lut[s.color.entries[np.ix_(vperm, vperm)]]


def test_certificate_matches_the_plan_and_the_scan_oracle(monkeypatch, catalog):
    # each catalog entry's plan is one product, so the kernel would not try
    # the certificate; tried anyway, a class matrix of weights a or a^2
    # generates every commutative entry, and no weights generate the
    # non-commutative thin S3 or thin S3 x K2, which take the plan
    s3 = thin_s3()
    sources = [*catalog.values(), s3, build_product(s3, complete_scheme(2), "direct")]
    for s in sources:
        e, d = s.color.entries, s.d
        *got, found = _forced(monkeypatch, e, d)
        assert found == [s.is_commutative]
        _assert_same(got, _plan_only(monkeypatch, e, d))
        _assert_same(got, scan_tensor_and_verify(e, d))


def test_certificate_work_on_the_ladder_under_relabeling(monkeypatch):
    # each ladder scheme under its own labels and 20 relabelings: the
    # certificate gives the plan's p and verdict with fewer products, 1 at
    # n = 961 where the plan makes 4 (and weights a^k took 2), 1 for
    # (241, 6) where it makes 3, and never more products than the plan
    expected = {961: 1, 241: 1, 256: 1}
    for s in [*(build_cyclotomic(q, m) for q, m in LADDER_CYCLOTOMICS), _ladder_961()]:
        for seed in [None, *range(20)]:
            e = s.color.entries if seed is None else _relabeled(s, seed)
            *got, spy = _spied_kernel(monkeypatch, e, s.d)
            products = spy.macs / s.n**3
            assert got[1]
            assert products <= len(_plan(e, s.d))
            assert products == expected.get(s.n, products)
            _assert_same(got, _plan_only(monkeypatch, e, s.d))


def test_certificate_mismatch_hands_the_plan_its_index(monkeypatch, catalog):
    # rectangle switches keep every row's counts, so the certificate is
    # tried (here whatever the plan's size).  On all but one of the 80
    # rejected colorings a certificate is found and one of its products
    # mismatches; the plan then starts from the first mismatching index, a
    # violating pair, and finds the scan oracle's witness.  A few switches
    # leave a scheme, which the certificate accepts
    ladder = [build_cyclotomic(q, m) for q, m in LADDER_CYCLOTOMICS]
    sources = [*(s for s in catalog.values() if s.d >= 2), *ladder, _small_direct()]
    rejected = through = 0
    for k, s in enumerate(sources):
        for seed in range(2 if s.n <= 41 else 1):
            e = _switched(s, np.random.default_rng([seed, k, 1]))
            if e is None:
                continue
            *got, found = _forced(monkeypatch, e, s.d)
            _assert_same(got, _plan_only(monkeypatch, e, s.d))
            assert (got[2] == scan_tensor_and_verify(e, s.d)[2]).all()
            rejected += not got[1]
            through += found == [True] and not got[1]
    assert rejected >= 70 and through >= rejected - 1


def test_certificate_mismatch_cuts_the_plan_at_n_961(monkeypatch):
    # a rectangle switch of the n = 961 ladder scheme: the kernel's own
    # certificate runs, a product mismatches, and each of the plan's 4
    # products is cut to the rows and columns before that index
    s = _ladder_961()
    n = s.n
    e = _switched(s, np.random.default_rng(0))
    p, ok, w, spy = _spied_kernel(monkeypatch, e, s.d)
    assert not ok
    _assert_same((p, ok, w), _plan_only(monkeypatch, e, s.d))
    made = [shape for shape in spy.products if shape == (n, n)]
    assert 1 <= len(made) <= 2 and spy.products[: len(made)] == made
    cut = spy.products[len(made) :]
    assert len(cut) == 2 * len(_plan(e, s.d)) and all(min(shape) < n // 2 for shape in cut)


def _krylov_rank(p, x):
    """The rank over Q of e_0, T e_0, ..., T^d e_0 for T[l, b] = sum_a x_a
    p[a, b, l], in Python ints, with no use of the kernel's prime."""
    m = len(x)
    T = [[sum(int(x[a]) * int(p[a, b, l]) for a in range(m)) for b in range(m)] for l in range(m)]
    v, krylov = [1] + [0] * (m - 1), []
    for _ in range(m):
        krylov.append(v)
        v = [sum(a * b for a, b in zip(row, v)) for row in T]
    return exactla.rank(krylov)


def test_certificate_at_a_later_power(catalog):
    # direct-qr7-k2: the weights a give a class matrix T whose Krylov
    # vectors e_0, T e_0, ..., T^d e_0 are dependent over Q, not only
    # modulo the prime; the certificate found generates the algebra
    s = catalog["direct-qr7-k2"]
    p, t, rows, c = _certificate_inputs(s.color.entries, s.d)
    assert _krylov_rank(p, range(s.d + 1)) < s.d + 1
    x, _ = _kernels.certificate(p, t, rows, c, MAX_D + 1)
    assert _krylov_rank(p, x) == s.d + 1


def _products(found, most):
    """The number of products a certificate search leaves the kernel to
    make: its blocks, or the plan's `most` when it finds none."""
    return most if found is None else len(found[1])


def _bounds(blocks):
    """{b: the digit bound of right color b}, read from each block's mixed
    radix."""
    return {b: v[i + 1] // v[i] - 1 for right, v in blocks for i, b in enumerate(right)}


@pytest.fixture(scope="module")
def certificate_cases(catalog):
    """(name, p, t, rows, c, most) of every certificate input checked
    below: each catalog entry, thin S3 and thin S3 x K2 with the search
    forced (most = MAX_D + 1), then with the plan's own count the ladder
    schemes under their own labels and 20 relabelings, cyclotomic (13, 4)
    squared and both wreaths of (49, 24) and (41, 8), at n = 2009."""
    s3 = thin_s3()
    forced = [*catalog.items(), ("thin-s3", s3)]
    forced.append(("thin-s3-k2", build_product(s3, complete_scheme(2), "direct")))
    cases = [
        (name, *_certificate_inputs(s.color.entries, s.d), MAX_D + 1) for name, s in forced
    ]
    a, b, c = build_cyclotomic(49, 24), build_cyclotomic(41, 8), build_cyclotomic(13, 4)
    ladder = [*(build_cyclotomic(q, m) for q, m in LADDER_CYCLOTOMICS), _ladder_961()]
    for name, s, seeds in [
        *((f"ladder-{s.n}", s, range(20)) for s in ladder),
        ("(13,4)^2", build_product(c, c, "direct"), []),
        ("(49,24)wr(41,8)", build_product(a, b, "wreath"), []),
        ("(41,8)wr(49,24)", build_product(b, a, "wreath"), []),
    ]:
        for seed in [None, *seeds]:
            e = s.color.entries if seed is None else _relabeled(s, seed)
            cases.append((name, *_certificate_inputs(e, s.d), len(_plan(e, s.d))))
    return cases


def test_certificate_never_needs_more_products_than_weights_a_k(certificate_cases):
    # the search over the lightest classes keeps weights a^k among its
    # candidates, so it never leaves more products than that search did;
    # no weights generate the non-commutative thin S3 or thin S3 x K2
    counts = {}
    for name, p, t, rows, c, most in certificate_cases:
        found = _kernels.certificate(p, t, rows, c, most)
        oracle = reference_certificate(p, t, rows, c, most)
        assert _products(found, most) <= _products(oracle, most), name
        if name.startswith("thin-s3"):
            assert found is None and oracle is None
        counts.setdefault(name, set()).add((_products(oracle, most), _products(found, most)))
    assert counts["ladder-961"] == {(2, 1)}
    assert counts["(13,4)^2"] == {(4, 3)}
    assert counts["(49,24)wr(41,8)"] == {(5, 5)}
    assert counts["(41,8)wr(49,24)"] == {(7, 6)}


def test_certificate_weights_generate_the_algebra_over_q(certificate_cases):
    # the proof needs e_0, T e_0, ..., T^d e_0 independent over Q: every
    # certificate returned has that rank in exact integers
    for name, p, t, rows, c, most in certificate_cases:
        found = _kernels.certificate(p, t, rows, c, most)
        if found is not None:
            assert _krylov_rank(p, found[0]) == len(rows), name


def test_certificate_digit_bounds_hold_on_the_products(catalog):
    # the packing is exact only if no digit passes its radix: the largest
    # entry of the true product M A_b is at most the bound of b, on the
    # ladder schemes and the catalog entries with the search forced
    ladder = [*(build_cyclotomic(q, m) for q, m in LADDER_CYCLOTOMICS), _ladder_961()]
    for s in [*catalog.values(), *ladder]:
        e, d = s.color.entries, s.d
        p, t, rows, c = _certificate_inputs(e, d)
        found = _kernels.certificate(p, t, rows, c, MAX_D + 1)
        if found is None:
            continue
        x, blocks = found
        M = x.astype(np.float64)[e]
        for b, bound in _bounds(blocks).items():
            assert (M @ (e == b)).max() <= bound, (s.n, b)
