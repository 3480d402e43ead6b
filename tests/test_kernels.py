import numpy as np
import pytest

from ascheme import _kernels
from ascheme.catalog import build_cyclotomic, catalog_scheme

from conftest import brute_intersection_numbers, scan_tensor_and_verify


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
    # boolean matmul in float64 must reproduce integer counts exactly
    e = build_cyclotomic(257, 2).color.entries
    p, ok, _ = _kernels.tensor_and_verify(e, 2)
    assert ok
    assert p.sum(axis=(0, 1)).tolist() == [257] * 3
