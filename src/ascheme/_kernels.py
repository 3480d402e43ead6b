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

Coverage.  Put colors 1..d in any order pos.  Cell (a, b) is made
directly iff pos(t[b]) >= pos(a).  Otherwise pos(t[b]) < pos(a) =
pos(t[t[a]]), so its partner (t[b], t[a]) is made directly and (a, b) is
read as that cell's transpose.  A product may make more cells than this
asks for; each is a true C_ab and is checked like the rest.

Digit bounds.  Let rows[a] be the largest count of color a in any row.
C_ab(x, y) is at most the count of a in row x, and at most the count of b
in column y, which axiom (3) makes the count of t[b] in row y: so C_ab <=
B_ab = min(rows[a], rows[t[b]]) on any input, scheme or not.

Packing (Kronecker substitution).  A product is M @ N with
M = sum_{a in L} u_a [e == a] and N = sum_{b in R} v_b [e == b], so that
(M @ N)(x, y) = sum_{a, b} u_a v_b C_ab(x, y).  The right weights are a
mixed radix, v_1 = 1 and v_{j+1} = v_j (1 + max_{a in L} B_ab_j); then
S_a = sum_b v_b C_ab has the C_ab as its digits and S_a <= s_a = sum_b v_b
B_ab.  The left weights are a second mixed radix over the S_a, u_1 = 1 and
u_{k+1} = u_k (1 + s_a_k), so the packed value has the S_a as its digits
and is below U = prod_{a in L} (1 + s_a).  This is exact when U <= 2^53:

- every term of the product is 0 or some u_a v_b with C_ab >= 1, a
  nonnegative integer no larger than the packed value, so every partial
  sum BLAS forms, in any order, is an integer below 2^53 and float64
  holds it exactly;
- each digit is below its radix, so the packed value decodes uniquely:
  S_a = value mod u_{k+1} div u_k, C_ab = S_a mod v_{j+1} div v_j.

The plan (`plan`) orders colors by row bound, largest first.  Then a
right color b that color a needs has rows[t[b]] <= rows[a], so B_ab is
b's own bound.  The plan groups consecutive left colors, gives each group
the right colors its first color needs, cuts those, smallest bound first,
into blocks with U <= 2^53, and picks the grouping with the fewest
products by a DP over the groups.  Cyclotomic (31,2) squared (n = 961,
d = 8; valencies 1, four of 15 and four of 225) takes 5 products, where
one radix of 226 for every cell took 10.

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

Every product reads its class values, at the first arcs and at their
transposes, as m dot products each of an operand row with an operand
column, so they do not depend on which part of the product is made.
Those sums are exact in any order for the same reason as the products:
each term is 0 or a u_a v_b no larger than the packed value, so every
partial sum is a nonnegative integer below 2^53.  Once a product has
shown a violation at scan index bad, a later product matters only where
it could show an earlier one.  Put r = bad // n + 1.  A direct cell that
fails at pair (x, y) before bad has x <= bad // n, so it lies in rows < r
of the product; a transposed cell C_ab^T fails at pair (y, x) where the
product fails at (x, y), and y*n + x < bad puts that in columns < r.  So
a later product makes only its rows < r and its columns < r, 2rn^2
multiply-adds against n^3 for the whole product: the kernel cuts a
product only while 2r < n, and otherwise makes it whole.  A rejected
coloring then costs the products up to the first that fails, then
2rn^2 multiply-adds and O(n^2) gathers for each later one, and p still
holds the histogram at every class's first arc.
"""

import math
from collections import Counter

import numpy as np

from .errors import ViolationNotReproduced

# float64 holds every integer up to here exactly
EXACT = 2**53


def first_arcs(e, d):
    """Row-major index of the first arc of each color 0..d (0 if absent)."""
    flat = e.ravel()
    return np.array([np.argmax(flat == i) for i in range(d + 1)], dtype=np.int64)


def row_bounds(e, d):
    """The largest count of each color 0..d in any row of e, as a list."""
    n, m = e.shape[0], d + 1
    counts = np.bincount(((np.arange(n) * m)[:, None] + e).ravel(), minlength=n * m)
    return counts.reshape(n, m).max(axis=0).tolist()


def _cuts(bounds, cols, most):
    """Where one product per block, with left rows of bounds `bounds`
    ({bound: number of rows}), packs the columns of bounds `cols`
    (ascending): the first column of each block, or None if one column
    alone does not fit or more than `most` blocks are needed."""
    starts, v, sums = [0], 1, dict.fromkeys(bounds, 0)
    for k, c in enumerate(cols):
        new = {r: s + v * min(r, c) for r, s in sums.items()}
        if math.prod((1 + s) ** bounds[r] for r, s in new.items()) > EXACT:
            if starts[-1] == k or len(starts) == most:
                return None
            starts.append(k)
            new = {r: min(r, c) for r in bounds}
            if math.prod((1 + s) ** bounds[r] for r, s in new.items()) > EXACT:
                return None
            v = 1
        sums = new
        v *= 1 + c
    return starts


def _weights(bounds):
    """Mixed-radix weights for digits bounded by `bounds`, closed by the
    product of their radices."""
    w = [1]
    for b in bounds:
        w.append(w[-1] * (1 + b))
    return tuple(w)


def plan(rows, t):
    """The kernel's products for row bounds rows[0..d] and transpose map t,
    as a list of (left, right, u, v): the left and right colors, and their
    integer weights, each list one longer than its colors and closed by the
    product of its radices, so u[-1] bounds the packed values."""
    d = len(rows) - 1
    order = sorted(range(1, d + 1), key=lambda a: -rows[a])
    # best[i] = (products, j, block starts) for the left colors order[i:],
    # grouping order[i:j] first.  best[i] >= best[j] for i < j, and
    # best[j] >= 1 for j < d, so the search for j, longest group first,
    # stops once no shorter group can beat the best found.
    best = {d: (0, d, None)}

    def search(i):
        if i in best:
            return best[i]
        # the bounds of the right colors order[i] needs, smallest first;
        # none exceeds order[i]'s own, so each is its column's radix - 1
        cols = [rows[c] for c in reversed(order[i:])]
        found = None
        for j in range(d, i, -1):
            if found and found[0] <= 1 + (j < d):
                break
            most = found[0] - search(j)[0] - 1 if found else len(cols)
            if most < 1:
                break
            starts = _cuts(Counter(rows[a] for a in order[i:j]), cols, most)
            if starts:
                found = (len(starts) + search(j)[0], j, starts)
        best[i] = found
        return found

    search(0)
    products, i = [], 0
    while i < d:
        _, j, starts = best[i]
        right = [t[c] for c in reversed(order[i:])]
        left = tuple(order[i:j])
        for lo, hi in zip(starts, starts[1:] + [len(right)]):
            block = right[lo:hi]
            v = _weights(rows[t[b]] for b in block)
            u = _weights(
                sum(vb * min(rows[a], rows[t[b]]) for vb, b in zip(v, block)) for a in left
            )
            products.append((left, tuple(block), u, v))
        i = j
    return products


def tensor_and_verify(e, d, t):
    """All intersection numbers of a coloring, plus an axiom (4) verdict.

    `t` is the transpose map, e[y, x] = t[e[x, y]] for every arc (axiom
    (3), checked by the caller), and e's diagonal is exactly color 0.
    Returns (p, ok, witness) where p[i, j, l] is the count of z with
    e[x, z] = i and e[z, y] = j for the first arc (x, y) of color l.  When
    ok is False, witness holds (i, j, l, x1, y1, count1, x2, y2, count2)
    for the first two conflicting pairs in scan order.

    Once a product fails at scan index bad, each later product makes only
    its rows and columns < r = bad // n + 1: rows < r hold every direct
    cell that could fail before bad, and columns < r every transposed one.
    Its class values come from m dot products of an operand row with an
    operand column, exact in any summation order as every term and
    partial sum is a nonnegative integer below 2^53.  While 2r >= n the
    product is made whole, so none costs more than n^3 multiply-adds.
    """
    n = e.shape[0]
    m = d + 1
    t = np.asarray(t)
    # every gather below indexes by this one copy: intp indices are not
    # cast again on each take
    idx = e.astype(np.intp)
    first = first_arcs(e, d)
    fx, fy = np.divmod(first, n)
    p = np.full((m, m, m), -1, dtype=np.int64)
    p[0] = p[:, 0] = np.eye(m, dtype=np.int64)
    wit = np.full(9, -1, dtype=np.int64)
    # the first violating scan index so far, n^2 for none
    bad = n * n
    for left, right, u, v in plan(row_bounds(idx, d), t.tolist()):
        # rows and columns < r hold every cell that can fail before bad;
        # once 2r >= n they cost more than the whole product
        r = bad // n + 1
        if 2 * r >= n:
            r = n
        wl, wr = np.zeros(m), np.zeros(m)
        wl[list(left)] = u[:-1]
        wr[list(right)] = v[:-1]
        lhs, rhs = wl[idx], wr[idx]
        ref = np.einsum("ij,ji->i", lhs[fx], rhs[:, fy])
        ref_t = np.einsum("ij,ji->i", lhs[fy], rhs[:, fx])
        # the kernel's only products; both operands are freed before the
        # constancy check
        head = np.matmul(lhs[:r], rhs)
        side = head if r == n else np.matmul(lhs, rhs[:, :r])
        del lhs, rhs
        # mismatch lives into the next product: freeing it let the heap
        # shrink, and the next product's arrays took about 2000 more page
        # faults, 10% of a valid call at n = 961
        mismatch = head != ref[idx[:r]]
        failed = bool(mismatch.any())
        if failed:
            bad = min(bad, int(np.argmax(mismatch)))
        del head
        # on a whole product the transposed cells fail only where the
        # direct ones do
        if failed or r < n:
            del mismatch
            mismatch = side != ref_t[t][idx[:, :r]]
            cols = mismatch.any(axis=0)
            if cols.any():
                y = int(np.argmax(cols))
                bad = min(bad, y * n + int(np.argmax(mismatch[:, y])))
        # the next product's operands must not meet this product
        del side
        packed, packed_t = ref.astype(np.int64), ref_t.astype(np.int64)
        for k, a in enumerate(left):
            s = packed % u[k + 1] // u[k]
            s_t = packed_t % u[k + 1] // u[k]
            for j, b in enumerate(right):
                p[a, b] = s % v[j + 1] // v[j]
                p[t[b], t[a]] = s_t % v[j + 1] // v[j]
    if bad == n * n:
        return p, True, wit
    # rebuild the witness in scan order: first violating pair row-major,
    # then first color pair (a, b) lexicographically
    x, y = divmod(bad, n)
    l = int(e[x, y])
    cnt = pair_counts(e, x, y, d)
    for a in range(m):
        for b in range(m):
            if cnt[a, b] != p[a, b, l]:
                wit[:] = (a, b, l, fx[l], fy[l], p[a, b, l], x, y, cnt[a, b])
                return p, False, wit
    raise ViolationNotReproduced(f"pair ({x}, {y}) violates axiom (4) but recounts clean")


def pair_counts(e, x, y, d):
    """Histogram of color pairs (e[x,z], e[z,y]) over all z, as a matrix."""
    m = d + 1
    joint = e[x].astype(np.int64) * m + e[:, y].astype(np.int64)
    return np.bincount(joint, minlength=m * m).reshape(m, m)