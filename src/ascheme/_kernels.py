"""Hot counting loop over color matrices.

The intersection-number pass is the only O(n^3) work in the package: for
every ordered vertex pair (x, y) it histograms the colors (e[x,z], e[z,y])
over all z and checks the histogram is constant on each color class.  A
violation is reported as the first one a row-major scan over (x, y) would
meet.

Write C_ab for the n x n matrix whose (x, y) entry is the count of z with
e[x,z] = a and e[z,y] = b.  The kernel makes only the C_ab that the
coloring's own structure leaves open:

- Color 0.  The diagonal is exactly color 0, so [e == 0] is the identity
  and C_0b = C_b0 = [e == b]: p[0, b, l] = p[b, 0, l] = [b == l], and
  these matrices are constant on every class.  No product has left or
  right color 0.
- Axiom (3).  The caller has checked that e[y, x] = t[e[x, y]] for every
  arc, with t the transpose map.  Then e[y,z] = t[b] iff e[z,y] = b and
  e[z,x] = t[a] iff e[x,z] = a, so C_{t[b] t[a]} is exactly C_ab^T, on any
  coloring that passes axiom (3), scheme or not.  Transposing maps the
  class of l onto the class of t[l], so C_ab is constant on every class
  iff C_{t[b] t[a]} is, and p[t[b], t[a], l] is C_ab at the transpose of
  l's first arc.

Coverage: left color a (1..d) multiplies only the right colors b with
t[b] >= a.  A cell (a, b) with t[b] < a is the transpose of the cell
(t[b], t[a]), and t[t[a]] = a > t[b], so that cell is made in row t[b].

The counts come from float64 matmuls on packed digits.  Colors 1..d are
put in order of t[b] (the color at position k is t[k + 1]) and the order
is cut into blocks of r, counted from its end, so the suffix {b : t[b] >=
a} is covered by the last ceil((d + 1 - a) / r) blocks.  Block g becomes
one matrix P_g = sum_{b in g} base^pos(b) [e == b], and ([e == a] @ P_g)
holds C_ab as its digit pos(b) in base `base`.  This is exact:

- C_ab(x, y) is at most the count of color a in row x, so with base = 1 +
  the largest count of any color in any row every count is one digit, on
  any input (row 0's valency alone bounds nothing on a bad coloring);
- r is the largest value with base^r <= 2^53, so every packed value is an
  integer below 2^53;
- every term of a product is 0 or a packed weight, all nonnegative, so
  every partial sum BLAS forms, in any order, is an integer no larger than
  the final packed value, and float64 holds it exactly.

That is sum_{k=1..d} ceil(k / r) products, in place of (d + 1)^2 matmuls
of single colors: 10 for cyclotomic (31,2) squared (n = 961, d = 8, base
226, r = 6).

Witness order.  A packed value is constant on a class iff each of its
digits is, so each product needs one constancy check, and on valid input
that is all.  The first violation in scan order is the smallest row-major
index at which some C_ab leaves its class value.  For a product that
fails, the kernel takes that index for its own cells and, for the
transposed cells, the first index of C_ab^T leaving its value, which is a
column-major scan of the product against the class values at the
transposed first arcs; every cell is then seen, directly or transposed.
The minimum over products is the first violating pair; a recount there
gives the first color pair (a, b) whose count differs.
"""

import numpy as np

from .errors import ViolationNotReproduced


def first_arcs(e, d):
    """Row-major index of the first arc of each color 0..d (0 if absent)."""
    flat = e.ravel()
    return np.array([np.argmax(flat == i) for i in range(d + 1)], dtype=np.int64)


def tensor_and_verify(e, d, t):
    """All intersection numbers of a coloring, plus an axiom (4) verdict.

    `t` is the transpose map, e[y, x] = t[e[x, y]] for every arc (axiom
    (3), checked by the caller), and e's diagonal is exactly color 0.
    Returns (p, ok, witness) where p[i, j, l] is the count of z with
    e[x, z] = i and e[z, y] = j for the first arc (x, y) of color l.  When
    ok is False, witness holds (i, j, l, x1, y1, count1, x2, y2, count2)
    for the first two conflicting pairs in scan order.
    """
    n = e.shape[0]
    m = d + 1
    t = np.asarray(t)
    first = first_arcs(e, d)
    first_t = first % n * n + first // n
    base = 1 + max(int(np.count_nonzero(e == a, axis=1).max()) for a in range(m))
    r = 1
    while r < d and base ** (r + 1) <= 2**53:
        r += 1
    blocks = [t[max(1, hi - r + 1):hi + 1] for hi in range(d, 0, -r)]
    packed = []
    for cols in blocks:
        weight = np.zeros(m)
        weight[cols] = [float(base**pos) for pos in range(len(cols))]
        packed.append(weight[e])
    p = np.full((m, m, m), -1, dtype=np.int64)
    p[0] = p[:, 0] = np.eye(m, dtype=np.int64)
    wit = np.full(9, -1, dtype=np.int64)
    bad = -1
    for a in range(1, m):
        left = (e == a).astype(np.float64)
        for cols, pg in zip(blocks, packed[: -(-(m - a) // r)]):
            prod = left @ pg
            flat = prod.ravel()
            ref, ref_t = flat[first], flat[first_t]
            mismatch = prod != ref[e]
            if mismatch.any():
                fi = int(np.argmax(mismatch))
                del mismatch
                mismatch = prod != ref_t[t][e]
                y = int(np.argmax(mismatch.any(axis=0)))
                fi_t = y * n + int(np.argmax(mismatch[:, y]))
                del mismatch
                fi = min(fi, fi_t)
                if bad < 0 or fi < bad:
                    bad = fi
            digits, digits_t = ref.astype(np.int64), ref_t.astype(np.int64)
            for b in cols:
                p[a, b] = digits % base
                p[t[b], t[a]] = digits_t % base
                digits //= base
                digits_t //= base
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
