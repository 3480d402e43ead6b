import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import _kernels
from ascheme.catalog import build_cyclotomic, build_product, catalog_scheme
from ascheme.errors import ViolationNotReproduced

from conftest import brute_intersection_numbers, compile_stripped, scan_tensor_and_verify


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
    p, ok, _ = _kernels.tensor_and_verify(e, 2)
    assert ok
    assert (p == brute_intersection_numbers(e, 2)).all()


def test_backends_agree_on_valid_schemes(catalog):
    for eid in ("cyclo-13-4", "schurian-z4", "wreath-qr3-qr3", "petersen"):
        e = catalog[eid].color.entries
        d = catalog[eid].d
        p1, ok1, w1 = _kernels.tensor_and_verify(e, d)
        p2, ok2, w2 = scan_tensor_and_verify(e, d)
        assert ok1 and ok2
        assert (p1 == p2).all()


def test_backends_agree_on_violation_witness():
    # perturb one entry of a valid coloring; the kernel must report the
    # reference loop's first-violation witness in row-major scan order
    e = build_cyclotomic(13, 2).color.entries.copy()
    e[3, 7] = 1 if e[3, 7] == 2 else 2
    e[7, 3] = e[3, 7]
    p1, ok1, w1 = _kernels.tensor_and_verify(e, 2)
    p2, ok2, w2 = scan_tensor_and_verify(e, 2)
    assert not ok1 and not ok2
    assert (w1 == w2).all()


def test_numpy_counts_are_exact_integers():
    # packed-digit products in float64 must reproduce integer counts exactly
    e = build_cyclotomic(257, 2).color.entries
    p, ok, _ = _kernels.tensor_and_verify(e, 2)
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
        stripped.tensor_and_verify(e, 2)


def _digit_groups(e, d):
    """Number of packed products per left color, as the kernel chooses it."""
    base = 1 + max(int(np.count_nonzero(e == a, axis=1).max()) for a in range(d + 1))
    r = 1
    while base ** (r + 1) <= 2**53:
        r += 1
    return -(-(d + 1) // r)


@st.composite
def transpose_consistent_colorings(draw):
    """(e, d): a coloring whose classes are closed under transpose and in
    which every color 0..d occurs.  Either the thin scheme of Z_n under a
    vertex permutation (a valid scheme), or random arcs where rows 1..n-1
    lean on color 1 while row 0 spreads its arcs over all colors, so row
    0's counts are no bound on the others'.  The "wide" kind draws many
    colors and a heavy lean, which needs two packed digit groups."""
    kind = draw(st.sampled_from(("thin", "lean", "wide")))
    wide = kind == "wide"
    n = draw(st.integers(16 if wide else 2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
    p1, ok1, w1 = _kernels.tensor_and_verify(e, d)
    p2, ok2, w2 = scan_tensor_and_verify(e, d)
    assert ok1 == ok2
    if ok1:
        assert (p1 == p2).all()
    else:
        assert (w1 == w2).all()
    # p holds the histogram at every class's first arc, met or not; a class
    # absent from row 0 has its first arc in a row whose counts row 0's do
    # not bound
    n = e.shape[0]
    for l in range(d + 1):
        x, y = divmod(int(np.argmax(e.ravel() == l)), n)
        hist = np.zeros((d + 1, d + 1), dtype=np.int64)
        for z in range(n):
            hist[e[x, z], e[z, y]] += 1
        assert (p1[:, :, l] == hist).all()


def test_digit_base_bounds_every_row():
    # row 0 holds each color once, so a base taken from row 0 would be 2,
    # while rows 1..19 hold color 1 eighteen times: the digits need base 19
    e = np.zeros((20, 20), dtype=np.int64)
    e[0, 1:], e[1:, 0] = np.arange(1, 20), np.arange(1, 20)
    e[1:, 1:] = 1
    np.fill_diagonal(e, 0)
    assert _digit_groups(e, 19) == 2
    p1, ok1, w1 = _kernels.tensor_and_verify(e, 19)
    p2, ok2, w2 = scan_tensor_and_verify(e, 19)
    assert not ok1 and not ok2
    assert (w1 == w2).all()


def test_product_with_two_digit_groups_matches_brute():
    # the Z13 thin scheme wreathed with Z3: d = 14 and outer valency 13, so
    # base 14 packs 13 colors per product and the 15 colors need two
    s = build_product(build_cyclotomic(13, 12), build_cyclotomic(3, 2), "wreath")
    e = s.color.entries
    assert s.d == 14 and _digit_groups(e, s.d) == 2
    p, ok, _ = _kernels.tensor_and_verify(e, s.d)
    assert ok
    assert (p == brute_intersection_numbers(e, s.d)).all()


def test_kernel_peak_memory_at_n_961():
    # the kernel once held all d + 1 float64 masks; now the packed groups,
    # one left mask, one product and the product's class reference
    # gathered for the constancy check are the n x n arrays live at once
    c = build_cyclotomic(31, 2)
    s = build_product(c, c, "direct")
    e, n, m = s.color.entries, s.n, s.d + 1
    groups = _digit_groups(e, s.d)
    assert (n, m, groups) == (961, 9, 2)
    tracemalloc.start()
    try:
        _kernels.tensor_and_verify(e, s.d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mat = 8 * n * n
    assert peak < m * mat
    assert peak < (groups + 3) * mat + mat // 2
