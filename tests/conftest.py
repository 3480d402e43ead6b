import types
from pathlib import Path

import numpy as np
import pytest

from ascheme.catalog import catalog_ids, catalog_scheme
from ascheme.spectra import character_table


@pytest.fixture(scope="session")
def catalog():
    """All bundled schemes, built once."""
    return {eid: catalog_scheme(eid) for eid in catalog_ids()}


@pytest.fixture(scope="session")
def tables(catalog):
    """Character tables for every commutative catalog scheme."""
    return {eid: character_table(s) for eid, s in catalog.items() if s.is_commutative}


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
