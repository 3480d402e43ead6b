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
- Row counts.  Let k[x, a] be the count of color a in row x.  Summed over
  b, C_ab(x, y) counts the z with e[x,z] = a, and C_a0(x, y) = [e[x,y] =
  a], so sum_{b >= 1} C_ab(x, y) = k[x, a] - [e[x,y] = a].  Summed over
  a, it counts the z with e[z,y] = b, which axiom (3) makes the count of
  t[b] in row y: sum_{a >= 1} C_ab(x, y) = k[y, t[b]] - [e[x,y] = b].
  Both hold at every pair, scheme or not.

Regular rows: one color derived.  When every row's counts equal row 0's,
k, the kernel picks c, the color of largest row bound (lowest label
first), makes no cell with right color c or left color t[c], and fills
them at each class's first arc from the sums above:

    p[a, c, l] = k_a - [l = a] - sum_{b not in {0, c}} p[a, b, l]     for a != t[c]
    p[t[c], b, l] = k_{t[b]} - [l = b] - sum_{a not in {0, t[c]}} p[a, b, l]   for b != c

and the corner (t[c], c) by the row sum of t[c].  These are the
histograms at the first arcs, as the sums hold there.  A derived cell
leaves its class value at a pair (x, y) of class l only if a computed
cell (made directly or read as a transpose) leaves its own there.  For
if every C_ab with a != t[c] and b != c takes its class value at (x, y),
then the row sums give C_ac(x, y) = p[a, c, l] for a != t[c], the column
sums give C_{t[c] b}(x, y) = p[t[c], b, l] for b != c, and the row sum of
t[c] gives the corner.  So the first violating pair is the first where a
computed cell fails, and the witness rebuilt there is the scan's.  The
t[c] row must not be read as the transposes of the p[., c] values: off a
scheme, C_ac is not constant on a class, so its value at the transpose of
l's first arc need not be p at the first arc of t[l].

Irregular rows: row 0 decides first.  Let x0 be the first row whose
counts differ from row 0's.  C_{a t[a]}(x, x) is k[x, a], so at the pair
(x0, x0), of class 0 with first arc (0, 0), some C_{a t[a]} leaves its
class value: the coloring is rejected.  Before any product,
row_zero_verdict counts C_ab(0, y) for every y with one bincount, which
holds each first arc in row 0.  Row 0 comes first in scan order, so the
first y whose histogram differs from its class's is the first violation,
and the witness is rebuilt there with no product made.  A scheme never
takes this step: its rows all hold k_i arcs of color i.  Every builder
ends in the same step (builders._transitive_scheme), with first arcs in
row 0, on a coloring that a group or the axioms let row 0 decide.  If
row 0 shows no violation, the first one is at index x0 (n + 1) or
before, and the kernel keeps the full plan and starts from that bound
(see the cuts below), as it does without this step.

First arcs.  The first arc of each color is the first row that the row
counts show holding it, and one argmax in that row.

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
products by a DP over the groups.  A derived color c is left out of
the order on the left as t[c], and so out of every right list as c.
Cyclotomic (31,2) squared (n = 961, d = 8; valencies 1, four of 15 and
four of 225) takes 4 products, 5 without its derived color, where one
radix of 226 for every cell took 10.

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
holds the histogram at every class's first arc.  With irregular rows that
row 0 does not reject, bad starts at x0 (n + 1), so every product is cut,
from the first, to its rows and columns < x0 + 1 while 2(x0 + 1) < n.

Workspace.  Each call allocates its two operands and its product once,
n x n float64 each, and fills them in place with np.take(...,
mode="clip") and np.matmul(..., out=) for every product, so its page
faults do not depend on what the heap keeps between products.  A cut
product writes its rows < r and then its columns < r into the first 2rn
entries of the product buffer.  Once the product is made, the operands
are free: the class tables are gathered into the left one, and the bool
mismatch is written over the first n^2 bytes of the right one.  With the
intp copy of e that is 4 n x n float64 arrays, and O(mn) beside them.
The row-0 step runs before the workspace exists and frees its n x n
int64 keys and its n m^2 bins first.
"""

import math
from collections import Counter

import numpy as np

from .errors import ViolationNotReproduced

# float64 holds every integer up to here exactly
EXACT = 2**53


def row_counts(e, d):
    """counts[x, i]: the number of arcs of color i in row x of e, an
    n x (d+1) matrix."""
    n, m = e.shape[0], d + 1
    counts = np.bincount(((np.arange(n) * m)[:, None] + e).ravel(), minlength=n * m)
    return counts.reshape(n, m)


def row_zero_verdict(e, d, fx, fy):
    """(p, witness): p[a, b, l] = C_ab at class l's first arc (fx[l], fy[l])
    and the unraised witness at the first (0, y) whose histogram differs
    from its class's, or None.  Each C_ab(0, y) is read from one bincount
    of the n^2 keys y m^2 + e[0,z] m + e[z,y], a first arc off row 0 anew."""
    n, m = e.shape[0], d + 1
    keys = e + np.arange(0, n * m * m, m * m, dtype=np.int64)
    keys += (e[0] * m)[:, None]
    row0 = np.bincount(keys.ravel(), minlength=n * m * m).reshape(n, m, m)
    p = np.ascontiguousarray(row0[fy].transpose(1, 2, 0))
    for l in np.flatnonzero(fx):
        p[:, :, l] = pair_counts(e, fx[l], fy[l], d)
    differs = (row0 != np.moveaxis(p, 2, 0)[e[0]]).any(axis=(1, 2))
    if not differs.any():
        return p, None
    return p, _witness(e, d, p, fx, fy, 0, int(differs.argmax()))


def first_arcs(e, counts):
    """Row-major index of the first arc of each color (0 if absent), from
    e's row counts: the first row that holds the color, then its first
    column there."""
    n, m = counts.shape
    x = (counts > 0).argmax(axis=0)
    return x * n + (e[x] == np.arange(m)[:, None]).argmax(axis=1)


def derived_color(rows):
    """The color c whose cells a coloring with regular rows and row bounds
    rows[0..d] derives from row and column sums: the largest bound, lowest
    label first.  None when d = 0."""
    return rows.index(max(rows[1:]), 1) if len(rows) > 1 else None


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


def plan(rows, t, c=None):
    """The kernel's products for row bounds rows[0..d] and transpose map t,
    as a list of (left, right, u, v): the left and right colors, and their
    integer weights, each list one longer than its colors and closed by the
    product of its radices, so u[-1] bounds the packed values.  With a
    derived color c, no product has right color c or left color t[c]."""
    order = sorted(
        (a for a in range(1, len(rows)) if c is None or a != t[c]), key=lambda a: -rows[a]
    )
    size = len(order)
    # best[i] = (products, j, block starts) for the left colors order[i:],
    # grouping order[i:j] first.  best[i] >= best[j] for i < j, and
    # best[j] >= 1 for j < size, so the search for j, longest group first,
    # stops once no shorter group can beat the best found.
    best = {size: (0, size, None)}

    def search(i):
        if i in best:
            return best[i]
        # the bounds of the right colors order[i] needs, smallest first;
        # none exceeds order[i]'s own, so each is its column's radix - 1
        cols = [rows[a] for a in reversed(order[i:])]
        found = None
        for j in range(size, i, -1):
            if found and found[0] <= 1 + (j < size):
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
    while i < size:
        _, j, starts = best[i]
        right = [t[a] for a in reversed(order[i:])]
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

    When a row's counts differ from row 0's, first at row x0, the
    coloring is rejected.  row_zero_verdict looks for the first violation
    in row 0, with no product; if there is none there, the products start
    from bad = x0 (n + 1).

    Once a product fails at scan index bad, or from that bound, each later
    product makes only its rows and columns < r = bad // n + 1: rows < r
    hold every direct cell that could fail before bad, and columns < r
    every transposed one.
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
    counts = row_counts(idx, d)
    fx, fy = np.divmod(first_arcs(idx, counts), n)
    # the first row whose counts differ from row 0's, 0 if none: the pair
    # (x0, x0) then violates axiom (4), as C_{a t[a]}(x, x) counts a in row x
    x0 = int((counts != counts[0]).any(axis=1).argmax())
    rows = counts.max(axis=0).tolist()
    c = None if x0 else derived_color(rows)
    p = np.full((m, m, m), -1, dtype=np.int64)
    eye = np.eye(m, dtype=np.int64)
    p[0] = p[:, 0] = eye
    if x0:
        # row 0 comes first in scan order: a pair (0, y) whose histogram
        # differs from its class's first arc's is the first violation
        p, witness = row_zero_verdict(idx, d, fx, fy)
        if witness is not None:
            return p, False, witness
    # the first violating scan index so far, n^2 for none
    bad = x0 * (n + 1) if x0 else n * n
    # the workspace (see the module notes); every take uses mode="clip",
    # which writes into out directly, where "raise" buffers the gather
    lhs, rhs, prod = np.empty((3, n, n))
    mismatch = rhs.reshape(-1).view(np.bool_)
    for left, right, u, v in plan(rows, t.tolist(), c):
        # rows and columns < r hold every cell that can fail before bad;
        # once 2r >= n they cost more than the whole product
        r = bad // n + 1
        if 2 * r >= n:
            r = n
        wl, wr = np.zeros(m), np.zeros(m)
        wl[list(left)] = u[:-1]
        wr[list(right)] = v[:-1]
        np.take(wl, idx, out=lhs, mode="clip")
        np.take(wr, idx, out=rhs, mode="clip")
        ref = np.einsum("ij,ji->i", lhs[fx], rhs[:, fy])
        ref_t = np.einsum("ij,ji->i", lhs[fy], rhs[:, fx])
        # the kernel's only products
        head = np.matmul(lhs[:r], rhs, out=prod[:r])
        if r == n:
            side = head
        else:
            side = prod.reshape(-1)[r * n : 2 * r * n].reshape(n, r)
            np.matmul(lhs, rhs[:, :r], out=side)
        np.take(ref, idx[:r], out=lhs[:r], mode="clip")
        head_mismatch = np.not_equal(head, lhs[:r], out=mismatch[: r * n].reshape(r, n))
        failed = bool(head_mismatch.any())
        if failed:
            bad = min(bad, int(np.argmax(head_mismatch)))
        # on a whole product the transposed cells fail only where the
        # direct ones do
        if failed or r < n:
            table = lhs.reshape(-1)[: n * r].reshape(n, r)
            np.take(ref_t[t], idx[:, :r], out=table, mode="clip")
            side_mismatch = np.not_equal(side, table, out=mismatch[: n * r].reshape(n, r))
            cols = side_mismatch.any(axis=0)
            if cols.any():
                y = int(np.argmax(cols))
                bad = min(bad, y * n + int(np.argmax(side_mismatch[:, y])))
        packed, packed_t = ref.astype(np.int64), ref_t.astype(np.int64)
        for k, a in enumerate(left):
            s = packed % u[k + 1] // u[k]
            s_t = packed_t % u[k + 1] // u[k]
            for j, b in enumerate(right):
                p[a, b] = s % v[j + 1] // v[j]
                p[t[b], t[a]] = s_t % v[j + 1] // v[j]
    if c is not None:
        # row sums for right color c, column sums for left color t[c],
        # then the corner by the row sum of t[c]
        k, tc = counts[0], t[c]
        ra = [a for a in range(1, m) if a != tc]
        rb = [b for b in range(1, m) if b != c]
        made = p[ra][:, rb]
        p[ra, c] = k[ra, None] - eye[ra] - made.sum(axis=1)
        p[tc, rb] = k[t[rb], None] - eye[rb] - made.sum(axis=0)
        p[tc, c] = k[tc] - eye[tc] - p[tc, rb].sum(axis=0)
    if bad == n * n:
        return p, True, np.full(9, -1, dtype=np.int64)
    return p, False, _witness(idx, d, p, fx, fy, *divmod(bad, n))


def _witness(e, d, p, fx, fy, x, y):
    """The witness at the first violating pair (x, y): the first color pair
    (a, b), lexicographically, whose count there differs from its class's
    first arc's."""
    l = int(e[x, y])
    cnt = pair_counts(e, x, y, d)
    cells = np.argwhere(cnt != p[:, :, l])
    if not len(cells):
        raise ViolationNotReproduced(f"pair ({x}, {y}) violates axiom (4) but recounts clean")
    a, b = cells[0]
    return np.array((a, b, l, fx[l], fy[l], p[a, b, l], x, y, cnt[a, b]), dtype=np.int64)


def pair_counts(e, x, y, d):
    """Histogram of color pairs (e[x,z], e[z,y]) over all z, as a matrix."""
    m = d + 1
    joint = e[x].astype(np.int64) * m + e[:, y].astype(np.int64)
    return np.bincount(joint, minlength=m * m).reshape(m, m)