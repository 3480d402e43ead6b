"""Hot counting loop over color matrices.

The intersection-number pass is the only O(n^3) work in the package: for
every ordered vertex pair (x, y) it histograms the colors (e[x,z], e[z,y])
over all z and checks the histogram is constant on each color class.  The
counts come from one boolean matmul per color pair (0/1 products stay exact
in float64 well below 2^53); a violation is reported as the first one a
row-major scan over (x, y) would meet.
"""

import numpy as np

from .errors import ViolationNotReproduced


def tensor_and_verify(e, d):
    """All intersection numbers of a coloring, plus an axiom (4) verdict.

    Returns (p, ok, witness) where p[i, j, l] is the count of z with
    e[x, z] = i and e[z, y] = j for (x, y) of color l.  When ok is False,
    witness holds (i, j, l, x1, y1, count1, x2, y2, count2) for the first
    two conflicting pairs in scan order and p is partial.
    """
    n = e.shape[0]
    m = d + 1
    flat = e.ravel()
    # first row-major occurrence of each color; parse guarantees all occur
    vals, idx = np.unique(flat, return_index=True)
    first_idx = np.zeros(m, dtype=np.int64)
    first_idx[vals] = idx
    masks = [(e == i).astype(np.float64) for i in range(m)]
    p = np.full((m, m, m), -1, dtype=np.int64)
    wit = np.full(9, -1, dtype=np.int64)
    ref_pos = first_idx[flat]
    bad = -1
    for a in range(m):
        for b in range(m):
            counts = (masks[a] @ masks[b]).ravel()
            p[a, b, :] = counts[first_idx].astype(np.int64)
            mismatch = counts != counts[ref_pos]
            if mismatch.any():
                fi = int(np.flatnonzero(mismatch)[0])
                if bad < 0 or fi < bad:
                    bad = fi
    if bad < 0:
        return p, True, wit
    # rebuild the witness in scan order: first violating pair row-major,
    # then first color pair (a, b) lexicographically
    x, y = divmod(bad, n)
    l = int(e[x, y])
    cnt = pair_counts(e, x, y, d)
    for a in range(m):
        for b in range(m):
            if cnt[a, b] != p[a, b, l]:
                fx, fy = divmod(int(first_idx[l]), n)
                wit[:] = (a, b, l, fx, fy, p[a, b, l], x, y, cnt[a, b])
                return p, False, wit
    raise ViolationNotReproduced(f"pair ({x}, {y}) violates axiom (4) but recounts clean")


def pair_counts(e, x, y, d):
    """Histogram of color pairs (e[x,z], e[z,y]) over all z, as a matrix."""
    m = d + 1
    joint = e[x].astype(np.int64) * m + e[:, y].astype(np.int64)
    return np.bincount(joint, minlength=m * m).reshape(m, m)
