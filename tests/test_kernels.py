import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import _kernels
from ascheme.catalog import build_cyclotomic, build_product, catalog_scheme
from ascheme.core import MAX_D, MAX_N, verify_axioms
from ascheme.errors import ViolationNotReproduced

from conftest import (
    brute_intersection_numbers,
    compile_stripped,
    corrupted_ladder_961,
    run_kernel,
    scan_tensor_and_verify,
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
    """The kernel's products for a coloring that passes axiom (3)."""
    t = np.ascontiguousarray(e.T).ravel()[_kernels.first_arcs(e, d)]
    return _kernels.plan(_kernels.row_bounds(e, d), t.tolist())


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
    # 1-3 arcs recolored, each with its reverse, in schemes whose plans make
    # two or more products.  Every product after the first that fails makes
    # only the rows and columns that could hold an earlier violation; on
    # the Z13 wreath Z5 scheme several seeds have such a product find one
    s = build()
    n, d, t = s.n, s.d, s.transpose_map
    assert len(_plan(s.color.entries, d)) >= 2
    rng = np.random.default_rng([seed, n, d])
    e = s.color.entries.astype(np.int64)
    for _ in range(1 + (seed - 1) % 3):
        x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
        c = int(rng.choice([c for c in range(1, d + 1) if c != e[x, y]]))
        e[x, y], e[y, x] = c, t[c]
    _check_rejected(e, d)


def test_kernel_rejects_like_scan_oracle_at_n_961():
    e, d = corrupted_ladder_961()
    assert len(_plan(e, d)) >= 2
    _check_rejected(e, d)


def _check_rejected(e, d):
    p1, ok1, w1 = run_kernel(e, d)
    p2, ok2, w2 = scan_tensor_and_verify(e, d)
    assert not ok1 and not ok2
    assert (w1 == w2).all()
    assert_first_arc_histograms(p1, e, d)


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
    assert radix_11(_kernels.row_bounds(e, 19)) == 20
    p1, ok1, w1 = run_kernel(e, 19)
    p2, ok2, w2 = scan_tensor_and_verify(e, 19)
    assert not ok1 and not ok2
    assert (w1 == w2).all()


def test_product_with_two_digit_groups_matches_brute():
    # the cyclotomic scheme of GF(17) with 8 classes of valency 2: all 8
    # left colors form one group, and its 64 cells of radix 3 (102 bits)
    # are cut into two blocks of 4 right colors
    s = build_cyclotomic(17, 8)
    e = s.color.entries
    products = _plan(e, s.d)
    assert s.d == 8 and [len(right) for _, right, _, _ in products] == [4, 4]
    assert all(left == tuple(range(1, 9)) for left, _, _, _ in products)
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
    e, d, t = _thin_wreath_corrupted()
    assert (t != np.arange(d + 1)).any()
    w = _check_transposed_witness(e, d, t)
    assert tuple(w[6:8]) == (1, 9)


def test_first_violation_reached_only_through_a_transpose_of_a_cut_product():
    # a second arc pair recolored in the scheme above: the first product
    # fails first at pair (1, 9), so the third is cut to rows and columns
    # < 2, and only its transposed cells, in column 0, show the first
    # violating pair (0, 30)
    e, d, t = _thin_wreath_corrupted()
    e[9, 30], e[30, 9] = 1, t[1]
    w = _check_transposed_witness(e, d, t)
    assert tuple(w[6:8]) == (0, 30)


def _thin_wreath_corrupted():
    s = build_product(build_cyclotomic(13, 12), build_cyclotomic(5, 4), "wreath")
    e, d, t = s.color.entries.copy(), s.d, np.asarray(s.transpose_map)
    e[9, 11], e[11, 9] = 1, t[1]
    return e, d, t


def _check_transposed_witness(e, d, t):
    """The kernel's witness, checked against the scan oracle's, differs from
    its class's first arc only in cells that no product makes directly."""
    made = _made(_plan(e, d))
    p1, ok1, w1 = run_kernel(e, d)
    p2, ok2, w2 = scan_tensor_and_verify(e, d)
    assert not ok1 and not ok2
    assert (w1 == w2).all()
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
@given(row_bounds_and_transposes(), st.randoms(use_true_random=False))
def test_plan_packs_exactly_and_covers_every_cell(case, rnd):
    rows, t = case
    d = len(rows) - 1
    products = _kernels.plan(rows, t)
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
            assert (a, b) in made or (t[b], t[a]) in made


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
    # beside each product.  Now the intp copy of e, the product's two
    # packed operands and the product are the n x n arrays live at once,
    # and the operands are gone before the constancy check gathers the
    # class values: 4 arrays, where two packed blocks beside each product
    # made 5.25.  The plan makes 5 products, where one radix for every cell
    # made 10.
    s = _ladder_961()
    e, n, m = s.color.entries, s.n, s.d + 1
    assert (n, m) == (961, 9)
    assert len(_plan(e, s.d)) <= 6
    ok, peak = _kernel_peak(e, s.d)
    assert ok
    assert peak < m
    assert peak < 4.5


def test_kernel_peak_memory_on_reject_at_n_961():
    # the first product fails and also scans its transpose against the
    # composed class table, one bool array at a time; every later product
    # makes only its rows and columns < r beside its two operands, which
    # is less than a whole product while 2r < n: all under the same bound
    e, d = corrupted_ladder_961()
    ok, peak = _kernel_peak(e, d)
    assert not ok
    assert peak < 4.5


class _CountingNumpy:
    """numpy, with the multiply-adds of every np.matmul call counted."""

    def __init__(self):
        self.macs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y):
        self.macs += x.shape[0] * x.shape[1] * y.shape[1]
        return np.matmul(x, y)


def _kernel_macs(monkeypatch, e, d):
    """(ok, multiply-adds) of one kernel call, in n x n x n products."""
    counting = _CountingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "np", counting)
        _, ok, _ = run_kernel(e, d)
    return ok, counting.macs / e.shape[0] ** 3


def test_kernel_work_on_reject_at_n_961(monkeypatch):
    # the first of the 5 planned products fails in row 0, so each later one
    # makes only row 0 and column 0: about one product in all, where making
    # every product whole took 5
    e, d = corrupted_ladder_961()
    assert len(_plan(e, d)) == 5
    ok, products = _kernel_macs(monkeypatch, e, d)
    assert not ok
    assert 1 <= products <= 1.3


def test_kernel_work_at_n_961(monkeypatch):
    # a valid coloring makes every planned product whole, and nothing more
    s = _ladder_961()
    e, d = s.color.entries, s.d
    ok, products = _kernel_macs(monkeypatch, e, d)
    assert ok
    assert products == len(_plan(e, d)) == 5


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
    """The number of products the plan makes for s under its own labels
    and under one random class relabeling per seed.  Relabeling the classes
    by sigma moves the row bound of a to sigma(a) and turns the transpose
    map t into sigma t sigma^-1, which is what the kernel would read from
    the relabeled coloring."""
    rows, t = _kernels.row_bounds(s.color.entries, s.d), list(s.transpose_map)
    sizes = {len(_kernels.plan(rows, t))}
    for seed in seeds:
        sigma = [0, *(1 + np.random.default_rng(seed).permutation(s.d)).tolist()]
        rows2, t2 = [0] * (s.d + 1), [0] * (s.d + 1)
        for a in range(s.d + 1):
            rows2[sigma[a]] = rows[a]
            t2[sigma[a]] = sigma[t[a]]
        sizes.add(len(_kernels.plan(rows2, t2)))
    return sizes


def test_plan_size_does_not_depend_on_class_labels(catalog):
    # the catalog and the perfbench ladder's schemes, three relabelings each
    ladder = [build_cyclotomic(q, m) for q, m in ((101, 2), (241, 6), (256, 5), (257, 2))]
    for s in [*catalog.values(), *ladder, _ladder_961()]:
        assert len(_plan_sizes_under_relabeling(s, range(3))) == 1


def test_plan_sizes_of_the_two_wreaths_at_n_2009():
    # cyclotomic (49, 24) wreath (41, 8) has row bounds 2 (x24) and 245
    # (x8); (41, 8) wreath (49, 24) has 5 (x8) and 82 (x24).  They are two
    # schemes, and each keeps its count under relabeling
    a, b = build_cyclotomic(49, 24), build_cyclotomic(41, 8)
    assert _plan_sizes_under_relabeling(build_product(a, b, "wreath"), range(3)) == {26}
    assert _plan_sizes_under_relabeling(build_product(b, a, "wreath"), range(3)) == {57}
