"""Color matrices, scheme axioms, and the intersection tensor.

A coloring of X x X with colors 0..d encodes d+1 relations; color 0 is the
diagonal.  Such a coloring is an association scheme when (1) the diagonal
is a single color, (2) the colors partition X x X, (3) the transpose of a
color class is a color class, and (4) for each pair of colors (i, j) the
count p_{ij}^l of z with (x,z) in R_i and (z,y) in R_j depends only on the
color l of (x,y).  Conditions (1) and (2) are ColorMatrix invariants;
verify_axioms checks (3) and (4) and collects the full tensor p.  A
fusion of a verified scheme is decided by fuse_classes on p alone, without
rerunning the axiom kernel.

Class labels carry no meaning, so a canonical relabeling is provided:
classes sort by (valency, lexicographically smallest indicator row, first
arc), transpose pairs stay adjacent with the member whose first arc (x, y)
has x < y listed first.  Emitted files always use canonical labels.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    InconsistentIntersectionNumber,
    MalformedHeader,
    MissingRelationIndex,
    NonSquareBody,
    NonzeroDiagonal,
    OutOfRangeEntry,
    ParseError,
    TooLarge,
    TransposeNotRelation,
)

MAX_N = 4096
MAX_D = 32


@dataclass(frozen=True)
class ColorMatrix:
    """Validated coloring: square, diagonal color 0, off-diagonal 1..d."""

    entries: np.ndarray
    d: int

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class IntersectionTensor:
    """p[i, j, l] = p_{ij}^l, plus the commutativity flag."""

    p: np.ndarray
    commutative: bool


@dataclass(frozen=True, eq=False)
class Scheme:
    color: ColorMatrix
    transpose_map: tuple
    valencies: tuple
    symmetric: tuple
    tensor: IntersectionTensor

    @property
    def n(self):
        return self.color.n

    @property
    def d(self):
        return self.color.d

    @property
    def is_commutative(self):
        return self.tensor.commutative

    @property
    def class_kind(self):
        """'symmetric', 'skew-symmetric' (only class 0 symmetric), or 'nonsymmetric'."""
        if all(self.symmetric):
            return "symmetric"
        if not any(self.symmetric[1:]):
            return "skew-symmetric"
        return "nonsymmetric"

    @property
    def transpose_pairs(self):
        """Nonsymmetric classes as (i, i') tuples with i < i'."""
        return tuple(
            (i, self.transpose_map[i])
            for i in range(1, self.d + 1)
            if i < self.transpose_map[i]
        )

    def adjacency(self, classes):
        """0/1 adjacency matrix of the union of the given classes."""
        if isinstance(classes, int):
            classes = (classes,)
        return np.isin(self.color.entries, list(classes)).astype(np.int64)


def union_classes(d, union):
    """A union of classes 1..d as a sorted tuple, validated."""
    u = tuple(sorted(set(int(i) for i in union)))
    if not u or u[0] < 1 or u[-1] > d:
        raise ValueError(f"union must be a nonempty subset of 1..{d}")
    return u


def _validate_entries(arr, d, row_loc=None):
    n = arr.shape[0]
    loc = row_loc if row_loc is not None else (lambda r: r)
    if n > MAX_N:
        raise TooLarge(f"n = {n} exceeds the supported maximum {MAX_N}")
    if d > MAX_D:
        raise TooLarge(f"d = {d} exceeds the supported maximum {MAX_D}")
    if n > 1 and d < 1:
        raise OutOfRangeEntry("d must be at least 1 for n > 1")
    diag = np.diagonal(arr)
    bad = np.flatnonzero(diag != 0)
    if bad.size:
        r = int(bad[0])
        raise NonzeroDiagonal(
            f"diagonal entry {int(diag[r])} must be 0", line=loc(r), col=r
        )
    off = arr.copy()
    np.fill_diagonal(off, 1 if d >= 1 else 0)
    bad_mask = (off < 1) | (off > d) if d >= 1 else (off != 0)
    if bad_mask.any():
        r, c = np.argwhere(bad_mask)[0]
        raise OutOfRangeEntry(
            f"entry {int(arr[r, c])} outside 0..{d}", line=loc(int(r)), col=int(c)
        )
    # entries are in 0..d here; np.unique would import numpy.ma
    counts = np.bincount(arr.ravel().astype(np.intp, copy=False), minlength=d + 1)
    if not counts.all():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise MissingRelationIndex(f"relation index {missing} never occurs")


def color_matrix(entries, d=None):
    """Build a ColorMatrix from array data, validating all invariants."""
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareBody(f"expected a square matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ParseError("entries must be integers")
    if d is None:
        d = int(arr.max(initial=0))
    _validate_entries(arr, d)
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    arr.setflags(write=False)
    return ColorMatrix(arr, int(d))


def parse_scheme_file(text):
    """Parse the scheme file format: 'n d' header then n rows of n colors.

    '#' starts a comment anywhere on a line; blank lines are skipped.
    """
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((num, body))
    if not lines:
        raise MalformedHeader("empty input")
    hnum, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedHeader(f"header must be 'n d', got {header!r}", line=hnum)
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeader(f"header must be two integers, got {header!r}", line=hnum)
    if n < 1 or d < 0:
        raise MalformedHeader(f"header values out of range: n={n} d={d}", line=hnum)
    body = lines[1:]
    if len(body) != n:
        raise NonSquareBody(
            f"expected {n} rows, got {len(body)}", line=body[-1][0] if body else hnum
        )
    rows = []
    row_lines = []
    for num, line in body:
        toks = line.split()
        if len(toks) != n:
            raise NonSquareBody(f"expected {n} entries, got {len(toks)}", line=num)
        try:
            rows.append([int(tk) for tk in toks])
        except ValueError:
            raise ParseError("non-integer entry", line=num)
        row_lines.append(num)
    arr = np.array(rows, dtype=np.int64)
    _validate_entries(arr, d, row_loc=lambda r: row_lines[r])
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    arr.setflags(write=False)
    return ColorMatrix(arr, d)


def emit_scheme_file(s):
    """Serialize a scheme in canonical class order; round-trip stable."""
    canon, _ = canonical_form(s)
    e = canon.color.entries
    out = [f"{canon.n} {canon.d}"]
    out.extend(" ".join(str(int(v)) for v in row) for row in e)
    return "\n".join(out) + "\n"


def verify_axioms(c):
    """Check axioms (3) and (4) for a ColorMatrix and build the Scheme.

    Raises TransposeNotRelation or InconsistentIntersectionNumber with a
    concrete witness on failure.  Non-commutative schemes are accepted and
    flagged; spectral operations reject them later.
    """
    e = c.entries
    n, d = c.n, c.d
    m = d + 1
    flat = e.ravel()
    flat_t = np.ascontiguousarray(e.T).ravel()
    # pairs[i, j] counts arcs (x, y) of color i with e[y, x] = j: the
    # transpose of class i is a class iff row i has one nonzero entry.  The
    # kernel finds the first arcs; they are needed here only to name the
    # first arc whose reverse breaks the rule.
    pairs = np.bincount(flat * m + flat_t, minlength=m * m).reshape(m, m)
    if (np.count_nonzero(pairs, axis=1) > 1).any():
        t = flat_t[_kernels.first_arcs(e, d)]
        x, y = divmod(int(np.flatnonzero(flat_t != t[flat])[0]), n)
        i = int(e[x, y])
        raise TransposeNotRelation(i, x, y, int(t[i]), int(e[y, x]))
    t = pairs.argmax(axis=1)
    p, ok, wit = _kernels.tensor_and_verify(e, d)
    if not ok:
        i, j, l, xa, ya, ca, xb, yb, cb = (int(v) for v in wit)
        raise InconsistentIntersectionNumber(i, j, l, (xa, ya), ca, (xb, yb), cb)
    commutative = bool(np.array_equal(p, p.transpose(1, 0, 2)))
    valencies = tuple(int(p[i, t[i], 0]) for i in range(d + 1))
    symmetric = tuple(bool(t[i] == i) for i in range(d + 1))
    return Scheme(
        color=c,
        transpose_map=tuple(int(v) for v in t),
        valencies=valencies,
        symmetric=symmetric,
        tensor=IntersectionTensor(p, commutative),
    )


def scheme_from_entries(entries, d=None):
    return verify_axioms(color_matrix(entries, d))


# ---------------------------------------------------------------------------
# canonical relabeling


def _class_sort_keys(e, valencies, d):
    flat = e.ravel()
    keys = {}
    for i in range(1, d + 1):
        mask = e == i
        min_row = min(mask[r].tobytes() for r in range(e.shape[0]))
        first_arc = int(np.flatnonzero(flat == i)[0])
        keys[i] = (valencies[i], min_row, first_arc)
    return keys


def canonical_class_order(s):
    """Permutation perm with perm[old] = new under the canonical order."""
    d = s.d
    keys = _class_sort_keys(s.color.entries, s.valencies, d)
    groups = []
    seen = set()
    for i in range(1, d + 1):
        if i in seen:
            continue
        j = s.transpose_map[i]
        seen.update((i, j))
        if i == j:
            members = (i,)
        else:
            # the member with the earlier first arc owns an arc (x, y), x < y
            members = (i, j) if keys[i][2] < keys[j][2] else (j, i)
        groups.append((min(keys[m] for m in members), members))
    groups.sort(key=lambda g: g[0])
    perm = [0] * (d + 1)
    nxt = 1
    for _, members in groups:
        for m in members:
            perm[m] = nxt
            nxt += 1
    return tuple(perm)


def relabel_classes(s, perm):
    """Relabel classes by perm (perm[old] = new), permuting stored data."""
    d = s.d
    lut = np.asarray(perm, dtype=np.int32)
    entries = lut.take(s.color.entries)
    entries.setflags(write=False)
    inv = np.empty(d + 1, dtype=np.int64)
    inv[list(perm)] = np.arange(d + 1)
    p = s.tensor.p[np.ix_(inv, inv, inv)]
    t = tuple(perm[s.transpose_map[inv[a]]] for a in range(d + 1))
    return Scheme(
        color=ColorMatrix(entries, d),
        transpose_map=t,
        valencies=tuple(s.valencies[inv[a]] for a in range(d + 1)),
        symmetric=tuple(s.symmetric[inv[a]] for a in range(d + 1)),
        tensor=IntersectionTensor(p, s.tensor.commutative),
    )


def canonical_form(s):
    """Canonically relabeled scheme plus the permutation (old -> new)."""
    perm = canonical_class_order(s)
    if perm == tuple(range(s.d + 1)):
        return s, perm
    return relabel_classes(s, perm), perm


# ---------------------------------------------------------------------------
# merging classes


def _block_lut(d, blocks):
    """lut[i] = index of the block holding class i; validates blocks."""
    if sorted(x for b in blocks for x in b) != list(range(d + 1)):
        raise ValueError("blocks must partition 0..d")
    if list(blocks[0]) != [0]:
        raise ValueError("blocks[0] must be [0]")
    lut = np.empty(d + 1, dtype=np.int32)
    for b, block in enumerate(blocks):
        for i in block:
            lut[i] = b
    return lut


def merge_classes(s, blocks):
    """Color matrix obtained by merging classes per a partition of 0..d.

    blocks must cover 0..d disjointly with blocks[0] == [0].  New class b
    is the union of the old classes in blocks[b]; no axiom check is done
    here (the fused coloring may fail to be a scheme).
    """
    lut = _block_lut(s.d, blocks)
    entries = lut.take(s.color.entries)
    entries.setflags(write=False)
    return ColorMatrix(entries, len(blocks) - 1)


def _first_arc(s, i):
    """First row-major arc of class i; row 0 meets every class."""
    return 0, int(np.argmax(s.color.entries[0] == i))


def fuse_classes(s, blocks):
    """The scheme whose class b is the union of classes blocks[b], decided
    on the intersection tensor (Bannai-Ito 1984; Brouwer-Cohen-Neumaier
    1989, section 2).

    It is a scheme iff the blocks are closed under the transpose map and
    each block sum q_IJ^l = sum_{i in I, j in J} p_ij^l is constant over l
    in every block K; those values are the fused tensor.  A failure raises
    TransposeNotRelation at the first arc of the offending class, or
    InconsistentIntersectionNumber at the first arcs of two classes of K
    whose block sums differ, with the sums as counts.
    """
    d = s.d
    lut = _block_lut(d, blocks)
    ref = np.array([min(b) for b in blocks])
    tlut = lut[np.asarray(s.transpose_map)]
    bad = np.flatnonzero(tlut != tlut[ref[lut]])
    if bad.size:
        i = int(bad[0])
        x, y = _first_arc(s, i)
        raise TransposeNotRelation(
            int(lut[i]), x, y, int(tlut[ref[lut[i]]]), int(tlut[i])
        )
    ind = np.zeros((d + 1, len(blocks)), dtype=np.int64)
    ind[np.arange(d + 1), lut] = 1
    # q[l, I, J] = sum over i in I, j in J of p[i, j, l]
    q = ind.T @ s.tensor.p.transpose(2, 0, 1) @ ind
    mism = np.argwhere(q != q[ref[lut]])
    if mism.size:
        l2, bi, bj = (int(v) for v in mism[0])
        l1 = int(ref[lut[l2]])
        raise InconsistentIntersectionNumber(
            bi, bj, int(lut[l2]),
            _first_arc(s, l1), int(q[l1, bi, bj]),
            _first_arc(s, l2), int(q[l2, bi, bj]),
        )
    p = np.ascontiguousarray(q[ref].transpose(1, 2, 0))
    t = tlut[ref]
    return Scheme(
        color=merge_classes(s, blocks),
        transpose_map=tuple(int(v) for v in t),
        valencies=tuple(int(p[b, t[b], 0]) for b in range(len(blocks))),
        symmetric=tuple(bool(t[b] == b) for b in range(len(blocks))),
        tensor=IntersectionTensor(p, bool(np.array_equal(p, p.transpose(1, 0, 2)))),
    )


def symmetrize(s):
    """Merge each class with its transpose.

    Returns (symmetrized scheme in canonical class order, correspondence)
    where correspondence[old_class] = new_class.  The symmetrization of a
    commutative scheme is always a scheme.  Already-symmetric schemes come
    back unchanged with the identity correspondence.
    """
    if all(s.symmetric):
        return s, tuple(range(s.d + 1))
    blocks = [[0]]
    for i in range(1, s.d + 1):
        j = s.transpose_map[i]
        if i <= j:
            blocks.append([i] if i == j else [i, j])
    canon, perm = canonical_form(fuse_classes(s, blocks))
    corr = [0] * (s.d + 1)
    for b, block in enumerate(blocks):
        for i in block:
            corr[i] = perm[b]
    return canon, tuple(corr)
