"""Hot counting loop over color matrices.

The intersection-number pass is the only O(n^3) work in the package: for
every ordered vertex pair (x, y) it histograms the colors (e[x,z], e[z,y])
over all z and checks the histogram is constant on each color class.  A
violation is reported as the first one a row-major scan over (x, y) would
meet.

The counts come from float64 matmuls on packed digits.  The colors 0..d
are cut into groups of r, and group g becomes one matrix
P_g = sum_{b in g} base^pos(b) [e == b].  For each color a the product
([e == a] @ P_g)[x, y] then holds, as its digit pos(b) in base `base`, the
count c_ab(x, y) of z with e[x,z] = a and e[z,y] = b.  This is exact:

- c_ab(x, y) is at most the count of color a in row x, so with base = 1 +
  the largest count of any color in any row every count is one digit, on
  any input (row 0's valency alone bounds nothing on a bad coloring);
- r is the largest value with base^r <= 2^53, so every packed value is an
  integer below 2^53;
- every term of a product is 0 or a packed weight, all nonnegative, so
  every partial sum BLAS forms, in any order, is an integer no larger than
  the final packed value, and float64 holds it exactly.

A packed value is constant on a color class iff each of its digits is, so
the packed products find the same first violation as the counts would.
With m = d + 1 colors that is m * ceil(m / r) products in place of m^2.
"""

import numpy as np

from .errors import ViolationNotReproduced


def first_arcs(e, d):
    """Row-major index of the first arc of each color 0..d (0 if absent)."""
    flat = e.ravel()
    return np.array([np.argmax(flat == i) for i in range(d + 1)], dtype=np.int64)


def tensor_and_verify(e, d):
    """All intersection numbers of a coloring, plus an axiom (4) verdict.

    Returns (p, ok, witness) where p[i, j, l] is the count of z with
    e[x, z] = i and e[z, y] = j for the first arc (x, y) of color l.  When
    ok is False, witness holds (i, j, l, x1, y1, count1, x2, y2, count2)
    for the first two conflicting pairs in scan order.
    """
    n = e.shape[0]
    m = d + 1
    first = first_arcs(e, d)
    base = 1 + max(int(np.count_nonzero(e == a, axis=1).max()) for a in range(m))
    r = 1
    while r < m and base ** (r + 1) <= 2**53:
        r += 1
    groups = [range(g, min(g + r, m)) for g in range(0, m, r)]
    packed = []
    for grp in groups:
        weight = np.zeros(m)
        weight[grp.start:grp.stop] = [float(base**pos) for pos in range(len(grp))]
        packed.append(weight[e])
    p = np.full((m, m, m), -1, dtype=np.int64)
    wit = np.full(9, -1, dtype=np.int64)
    bad = -1
    for a in range(m):
        left = (e == a).astype(np.float64)
        for grp, pg in zip(groups, packed):
            prod = left @ pg
            ref = prod.ravel()[first]
            mismatch = prod != ref[e]
            if mismatch.any():
                fi = int(np.argmax(mismatch))
                if bad < 0 or fi < bad:
                    bad = fi
            digits = ref.astype(np.int64)
            for b in grp:
                p[a, b, :] = digits % base
                digits //= base
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
                fx, fy = divmod(int(first[l]), n)
                wit[:] = (a, b, l, fx, fy, p[a, b, l], x, y, cnt[a, b])
                return p, False, wit
    raise ViolationNotReproduced(f"pair ({x}, {y}) violates axiom (4) but recounts clean")


def pair_counts(e, x, y, d):
    """Histogram of color pairs (e[x,z], e[z,y]) over all z, as a matrix."""
    m = d + 1
    joint = e[x].astype(np.int64) * m + e[:, y].astype(np.int64)
    return np.bincount(joint, minlength=m * m).reshape(m, m)
