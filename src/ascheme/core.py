"""Color matrices, scheme axioms, and the intersection tensor.

A coloring of X x X with colors 0..d encodes d+1 relations; color 0 is the
diagonal.  Such a coloring is an association scheme when (1) the diagonal
is a single color, (2) the colors partition X x X, (3) the transpose of a
color class is a color class, and (4) for each pair of colors (i, j) the
count p_{ij}^l of z with (x,z) in R_i and (z,y) in R_j depends only on the
color l of (x,y).  Conditions (1) and (2) are ColorMatrix invariants;
verify_axioms checks (3) and (4) and collects the full tensor p; a Scheme
is the coloring plus p.  verify_axioms runs on parsed files,
scheme_from_entries and the catalog's axioms cross-check; the builders
(builders) decide p from row 0 and build the Scheme directly.
A fusion of a verified scheme is decided by fuse_classes on p alone and
yields the fused p, without rerunning the axiom kernel or building an
n x n coloring; fuse_canonical decides a whole stack of partitions with
one product.

Class labels carry no meaning, so a canonical relabeling is provided:
classes sort by (valency, lexicographically smallest indicator row, first
arc), transpose pairs stay adjacent with the member whose first arc (x, y)
has x < y listed first.  Emitted files always use canonical labels.

Scheme text: for d <= 9, emit_scheme_file (and so `ascheme build`) writes
an 'n d' header, then n lines of one-digit labels joined by single spaces
and closed by LF.  parse_scheme_file decodes a text in exactly that layout
as one strided uint8 view of its bytes; every other text (comments, CRLF,
tabs, blank lines, two-digit labels) keeps the line path, and both paths
end in the same validation.

A Scheme never changes after it is built, so what is derived from it alone
(its character table, symmetrization, fusions, generation reports and SRG
parameters) is computed once and kept in the scheme's memo (memoized).
"""

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    AxiomViolation,
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

# Input guards.  At both limits, with 32 classes of about 128 arcs per row
# each (row bounds 128), _kernels.plan makes 83 float64 products of
# 4096 x 4096 matrices, 0.14 TFLOP each, when every row has the same
# counts, and at most 88 when not; one radix for every cell took 90.  An
# input whose rows differ and whose row 0 already shows a violation makes
# no product: one bincount into 4096 * 33^2 int64 bins (36 MB) rejects it.
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
    """p[i, j, l] = p_{ij}^l of a verified scheme; commutative iff p_ij^l = p_ji^l."""

    p: np.ndarray
    commutative: bool = field(init=False)

    def __post_init__(self):
        p = self.p
        object.__setattr__(self, "commutative", bool(np.array_equal(p, p.transpose(1, 0, 2))))


@dataclass(frozen=True, eq=False)
class Scheme:
    """A coloring and its verified tensor p.  As p_ij^0 = k_i when j = i' and
    0 otherwise, the transpose map, valencies and symmetry flags are read
    off the l = 0 slice; that holds only for a verified p."""

    color: ColorMatrix
    tensor: IntersectionTensor
    transpose_map: tuple = field(init=False)
    valencies: tuple = field(init=False)
    symmetric: tuple = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        p0 = self.tensor.p[:, :, 0]
        t = [int(v) for v in p0.argmax(axis=1)]
        object.__setattr__(self, "transpose_map", tuple(t))
        object.__setattr__(self, "valencies", tuple(int(p0[i, j]) for i, j in enumerate(t)))
        object.__setattr__(self, "symmetric", tuple(i == j for i, j in enumerate(t)))

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


def memoized(key):
    """Decorator for a function f(s, ...) of the immutable Scheme s alone:
    the result is kept in s's memo under (f, key(s, ...)), where key takes
    f's arguments and normalizes them.  The entry is keyed on f itself, not
    its name, so copies of a module never share entries.

    A call that raises stores nothing, so the next call runs f again.  No
    result may refer to s itself: the memo would then hold its own scheme,
    and a scheme that is dropped would wait for the cycle collector.

    The decorated function's fill(s, args, stack, entries) is the batch
    path: it returns f(s, a) for each a of args, in order.  It takes each
    argument's key once, skips the keys already kept, and calls
    stack(s, keys) once per stack_chunks(todo, entries) chunk of the
    distinct keys left, where stack decides a list of keys as f would
    decide each, using `entries` array entries per key.  Each chunk's
    values are kept as that chunk returns, so a chunk that raises loses
    only its own keys.
    """

    def wrap(f):
        @functools.wraps(f)
        def cached(s, *args, **kwargs):
            k = (f, key(s, *args, **kwargs))
            if k not in s._memo:
                s._memo[k] = f(s, *args, **kwargs)
            return s._memo[k]

        def fill(s, args, stack, entries):
            keys = [key(s, a) for a in args]
            todo = list(dict.fromkeys(k for k in keys if (f, k) not in s._memo))
            for chunk in stack_chunks(todo, entries):
                for k, value in zip(chunk, stack(s, chunk), strict=True):
                    s._memo[f, k] = value
            return [s._memo[f, k] for k in keys]

        cached.fill = fill
        return cached

    return wrap


# A stacked decision (fuse_canonical, spectra.block_sums, each memoized
# fill) takes at most this many entries in its largest array, and text
# decoding, validation and class relabeling work on row blocks of about
# this many entries, so their index and byte transients stay near a
# megabyte
STACK_ENTRIES = 1 << 16


def stack_chunks(items, entries):
    """items in consecutive chunks, each of at most STACK_ENTRIES // entries
    items (at least one), for a stacked decision that takes `entries`
    array entries per item."""
    step = max(1, STACK_ENTRIES // entries)
    return [items[a : a + step] for a in range(0, len(items), step)]


def exact_int(v):
    """v as an int; ValueError where int() would truncate it."""
    i = int(v)
    if i != v:
        raise ValueError(f"{v!r} is not an integer")
    return i


def union_classes(d, union):
    """A union of classes 1..d as a sorted tuple, validated."""
    u = tuple(sorted(set(map(exact_int, union))))
    if not u or u[0] < 1 or u[-1] > d:
        raise ValueError(f"union must be a nonempty subset of 1..{d}")
    return u


def mask_unions(d):
    """Every nonempty union of classes 1..d as a sorted tuple, in the order
    of its bitmask (bit i - 1 set for class i)."""
    return [tuple(i + 1 for i in range(d) if mask >> i & 1) for mask in range(1, 2**d)]


def size_guard(n, d=0):
    """TooLarge unless n <= MAX_N and d <= MAX_D: the one size guard of
    parsed files, color matrices and every builder, raised before any
    n x n work."""
    if n > MAX_N:
        raise TooLarge(f"n = {n} exceeds the supported maximum {MAX_N}")
    if d > MAX_D:
        raise TooLarge(f"d = {d} exceeds the supported maximum {MAX_D}")


def _validate_entries(arr, d, row_loc=None):
    n = arr.shape[0]
    loc = row_loc if row_loc is not None else (lambda r: r)
    size_guard(n, d)
    if n > 1 and d < 1:
        raise OutOfRangeEntry("d must be at least 1 for n > 1")
    diag = np.diagonal(arr)
    bad = np.flatnonzero(diag != 0)
    if bad.size:
        r = int(bad[0])
        raise NonzeroDiagonal(
            f"diagonal entry {int(diag[r])} must be 0", line=loc(r), col=r
        )
    # off the diagonal every entry is in 1..d; masking the diagonal out of
    # the bool mask costs no copy of arr
    bad_mask = arr < 1
    bad_mask |= arr > d
    np.fill_diagonal(bad_mask, False)
    if bad_mask.any():
        r, c = divmod(int(bad_mask.argmax()), n)
        raise OutOfRangeEntry(f"entry {int(arr[r, c])} outside 0..{d}", line=loc(r), col=c)
    # entries are in 0..d here; np.unique would import numpy.ma.  Counted in
    # row blocks, the intp cast of a narrow dtype (a parsed uint8 matrix)
    # stays near a megabyte
    counts = np.zeros(d + 1, dtype=np.intp)
    for a, b in _row_blocks(n):
        counts += np.bincount(arr[a:b].ravel().astype(np.intp, copy=False), minlength=d + 1)
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
    return _frozen(arr, d)


def _frozen(arr, d):
    """The read-only int32 ColorMatrix of validated entries."""
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    arr.setflags(write=False)
    return ColorMatrix(arr, int(d))


# The longest digit run decoded positionally in int64: 10^18 - 1 < 2^63.
# A longer run is left to int(), with its big integers and its digit limit.
_MAX_RUN = 18


def _row_blocks(n):
    return [(r.start, r.stop) for r in stack_chunks(range(n), max(n, 1))]


def _split_row(num, line, n):
    """The entries of one body line by str.split and int."""
    toks = line.split()
    if len(toks) != n:
        raise NonSquareBody(f"expected {n} entries, got {len(toks)}", line=num)
    try:
        return [int(tk) for tk in toks]
    except ValueError:
        raise ParseError("non-integer entry", line=num)


def _decode_rows(lines, n):
    """The entries of the body lines `lines`, [(line number, text)]: an
    int64 array with one row per line, and a list of (index in `lines`,
    ints) for the lines read by _split_row.

    The lines are joined by newlines into one uint8 buffer.  On a line of
    ASCII digits, spaces and tabs the tokens are the digit runs, read by a
    positional decode.  Any other line, or one with a run longer than
    _MAX_RUN, goes to _split_row, and its row of the array is left unset:
    the caller stores those ints last, so that one too large for int64
    fails only after every row is read.  Errors are raised in line order,
    as a line-by-line reader raises them.
    """
    buf = np.frombuffer(("\n".join(line for _, line in lines) + "\n").encode(), np.uint8)
    ends = np.flatnonzero(buf == 10)
    digit = buf - np.uint8(48)
    isdigit = digit < 10
    # digit runs: edges alternate start and stop, the last newline stops the last
    edges = np.flatnonzero(np.diff(isdigit, prepend=False))
    starts, runs = edges[0::2], edges[1::2] - edges[0::2]
    counts = np.diff(np.searchsorted(starts, ends), prepend=0)
    odd = np.flatnonzero(~isdigit & (buf != 32) & (buf != 9) & (buf != 10))
    unusual = np.zeros(len(lines), dtype=bool)
    unusual[np.searchsorted(ends, odd)] = True
    unusual[np.searchsorted(ends, starts[runs > _MAX_RUN])] = True
    split = []
    for k in np.flatnonzero(unusual | (counts != n)):
        num, line = lines[k]
        if not unusual[k]:
            raise NonSquareBody(f"expected {n} entries, got {counts[k]}", line=num)
        split.append((int(k), _split_row(num, line, n)))
    if split:
        keep = np.repeat(~unusual, counts)
        starts, runs = starts[keep], runs[keep]
    value = digit[starts].astype(np.int64)
    for k in range(1, int(runs.max(initial=0))):
        more = runs > k
        value[more] = value[more] * 10 + digit[starts[more] + k]
    out = np.empty((len(lines), n), dtype=np.int64)
    out[~unusual] = value.reshape(-1, n)
    return out, split


def _header(hnum, header):
    """n and d of the header line `header`, file line `hnum`, after the
    checks of every parse: two integers, n >= 1, d >= 0, size_guard."""
    parts = header.split()
    if len(parts) != 2:
        raise MalformedHeader(f"header must be 'n d', got {header!r}", line=hnum)
    try:
        n, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeader(f"header must be two integers, got {header!r}", line=hnum)
    if n < 1 or d < 0:
        raise MalformedHeader(f"header values out of range: n={n} d={d}", line=hnum)
    size_guard(n, d)
    return n, d


def _strided_rows(text, start, n):
    """The uint8 entries of the n body lines that begin at offset `start`
    of `text`, or None unless they are in the layout emit_scheme_file
    writes for d <= 9: n lines of 2n bytes, an ASCII digit at every even
    offset, a space at every odd one but the last, and a newline there.
    The body is read as one strided view of the text's bytes, with no line
    split.  `text` is ASCII."""
    if len(text) - start != 2 * n * n:
        return None
    rows = np.frombuffer(text.encode("ascii"), np.uint8, offset=start).reshape(n, 2 * n)
    if (rows[:, 1:-1:2] != 32).any() or (rows[:, -1] != 10).any():
        return None
    entries = rows[:, 0::2] - np.uint8(48)
    if (entries > 9).any():
        return None
    return entries


def parse_scheme_file(text):
    """Parse the scheme file format: 'n d' header then n rows of n colors.

    '#' starts a comment anywhere on a line; blank lines are skipped.  A
    header beyond MAX_N or MAX_D raises TooLarge before any row is read.
    An entry is any token that int() reads.  A text in the layout that
    emit_scheme_file (and so `ascheme build`) writes for d <= 9, a first
    line of ASCII digits, one space and ASCII digits, then one-digit
    labels joined by single spaces with LF line ends, is decoded as one
    strided uint8 view of its bytes (_strided_rows).  Every other text
    takes the line path: the body is decoded in row blocks (_decode_rows),
    lines of ASCII digits, spaces and tabs in numpy, any other line by
    str.split and int.  Both paths end in the same validation, so they give
    the same values and the same errors at the same line.
    emit_scheme_file's output parses back to the canonical relabeling of
    the emitted scheme.
    """
    # the emitted header, ASCII digits, one space and ASCII digits, gets
    # the checks and the size guard of every header before its body is
    # tried as one strided view
    head = text[: text.find("\n") + 1]
    n_txt, _, d_txt = head[:-1].partition(" ")
    if text.isascii() and n_txt.isdigit() and d_txt.isdigit():
        n, d = _header(1, head[:-1])
        arr = _strided_rows(text, len(head), n)
        if arr is not None:
            _validate_entries(arr, d, row_loc=lambda r: r + 2)
            return _frozen(arr, d)
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((num, body))
    if not lines:
        raise MalformedHeader("empty input")
    hnum, header = lines[0]
    n, d = _header(hnum, header)
    body = lines[1:]
    if len(body) != n:
        raise NonSquareBody(
            f"expected {n} rows, got {len(body)}", line=body[-1][0] if body else hnum
        )
    # blocks are kept until every row is read: a header n far beyond the
    # text then allocates nothing before a short row raises
    blocks, split_rows = [], []
    for a, b in _row_blocks(n):
        block, split = _decode_rows(body[a:b], n)
        blocks.append(block)
        split_rows += [(a + k, vals) for k, vals in split]
    arr = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    del blocks
    for r, vals in split_rows:
        arr[r] = vals
    row_lines = [num for num, _ in body]
    _validate_entries(arr, d, row_loc=lambda r: row_lines[r])
    return _frozen(arr, d)


def emit_scheme_file(s):
    """Serialize a scheme in canonical class order; round-trip stable.

    The text is the header 'n d', then one line per row: the labels in
    decimal, one space between them.  It is written in row blocks into a
    preallocated uint8 buffer from a table of label bytes, each padded to
    the widest label (two digits at most, as MAX_D = 32) plus a space.
    For d <= 9 every label is one digit, so a row block is one take from
    the table and needs no padding; otherwise a mask drops the padding.
    Every row holds k_i entries of class i, so all rows have the same
    length in bytes.  parse_scheme_file reads the text back as the
    canonical coloring, which emits the same text again; for d <= 9 it
    reads it as one strided view.
    """
    canon, _ = canonical_form(s)
    e = canon.color.entries
    n, d = canon.n, canon.d
    labels = [str(i).encode() for i in range(d + 1)]
    width = max(len(lab) for lab in labels)
    table = np.full((d + 1, width + 1), ord(" "), dtype=np.uint8)
    keep = np.zeros((d + 1, width + 1), dtype=bool)
    for i, lab in enumerate(labels):
        table[i, width - len(lab):width] = list(lab)
        keep[i, width - len(lab):] = True
    head = f"{n} {d}\n".encode()
    row_len = sum(k * (len(lab) + 1) for k, lab in zip(canon.valencies, labels))
    buf = np.empty(len(head) + n * row_len, dtype=np.uint8)
    buf[: len(head)] = list(head)
    rows = buf[len(head):].reshape(n, row_len)
    for a, b in _row_blocks(n):
        chars = table.take(e[a:b], axis=0)
        chars[:, -1, -1] = ord("\n")
        if width > 1:
            chars = chars[keep.take(e[a:b], axis=0)]
        rows[a:b] = chars.reshape(b - a, row_len)
    return str(buf.data, "ascii")


def json_default(obj):
    """json's fallback for the numpy scalars and Fractions in reports: a
    numpy scalar as the Python number, a Fraction as its string 'p/q'.

    Fractions are matched as numbers.Rational, which numpy has loaded
    already, so a one-shot launch does not import fractions for this.
    """
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, numbers.Rational):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


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
        t = flat_t[_kernels.first_arcs(e, _kernels.row_counts(e, d))]
        x, y = divmod(int(np.flatnonzero(flat_t != t[flat])[0]), n)
        i = int(e[x, y])
        raise TransposeNotRelation(i, x, y, int(t[i]), int(e[y, x]))
    t = pairs.argmax(axis=1)
    del flat_t  # n x n; the kernel's peak must not carry it
    p, ok, wit = _kernels.tensor_and_verify(e, d, t)
    if not ok:
        raise InconsistentIntersectionNumber.from_witness(wit)
    return Scheme(c, IntersectionTensor(p))


def scheme_from_entries(entries, d=None):
    return verify_axioms(color_matrix(entries, d))


# ---------------------------------------------------------------------------
# canonical relabeling


def _min_row(mask):
    """The lexicographically smallest row of a bool matrix, as bytes.

    Packed bits keep the rows' lexicographic order, and so do big-endian
    64-bit words of them; the rows still tied are narrowed a word at a time.
    """
    bits = np.packbits(mask, axis=1)
    words = np.zeros((bits.shape[0], -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    rows = np.arange(mask.shape[0])
    for col in words.view(">u8").T:
        vals = col[rows]
        rows = rows[vals == vals.min()]
        if rows.size == 1:
            break
    return mask[rows[0]].tobytes()


def _class_sort_keys(e, valencies, d):
    keys = {}
    for i in range(1, d + 1):
        mask = e == i
        keys[i] = (valencies[i], _min_row(mask), int(np.argmax(mask)))
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


def _take_rows(lut, entries):
    """lut[entries] by take, in row blocks: take casts its int32 index to
    intp, and the cast of a whole n x n matrix is twice the output."""
    out = np.empty(entries.shape, dtype=lut.dtype)
    for a, b in _row_blocks(entries.shape[0]):
        lut.take(entries[a:b], out=out[a:b])
    return out


def relabel_classes(s, perm):
    """Relabel classes by perm (perm[old] = new): the coloring and p."""
    d = s.d
    entries = _take_rows(np.asarray(perm, dtype=np.int32), s.color.entries)
    entries.setflags(write=False)
    inv = np.empty(d + 1, dtype=np.int64)
    inv[list(perm)] = np.arange(d + 1)
    p = s.tensor.p[np.ix_(inv, inv, inv)]
    return Scheme(ColorMatrix(entries, d), IntersectionTensor(p))


def canonical_form(s):
    """Canonically relabeled scheme plus the permutation (old -> new)."""
    perm = canonical_class_order(s)
    if perm == tuple(range(s.d + 1)):
        return s, perm
    return relabel_classes(s, perm), perm


# ---------------------------------------------------------------------------
# merging classes


def canonical_partition(blocks, d):
    """Blocks as sorted tuples, ordered by smallest element, Λ_0 = {0} first;
    ValueError unless they partition 0..d with {0} alone ({0} may be left out)."""
    out = sorted(tuple(sorted(map(exact_int, b))) for b in blocks if len(b) > 0)
    if not out or out[0] != (0,):
        out.insert(0, (0,))
    if sorted(i for b in out for i in b) != list(range(d + 1)):
        raise ValueError(f"blocks {list(blocks)} do not partition 0..{d} with {{0}} alone")
    return tuple(out)


def _block_lut(d, blocks):
    """lut[i], the index of the block holding class i, for blocks as
    canonical_partition returns them; they are not checked again."""
    lut = np.empty(d + 1, dtype=np.int32)
    for b, block in enumerate(blocks):
        lut[list(block)] = b
    return lut


def merge_classes(s, blocks):
    """Color matrix obtained by merging classes per a partition of 0..d.

    New class b is the union of the old classes in block b of
    canonical_partition(blocks, s.d); no axiom check is done here (the
    fused coloring may fail to be a scheme).
    """
    blocks = canonical_partition(blocks, s.d)
    entries = _take_rows(_block_lut(s.d, blocks), s.color.entries)
    entries.setflags(write=False)
    return ColorMatrix(entries, len(blocks) - 1)


def _first_arc(s, i):
    """First row-major arc of class i; row 0 meets every class."""
    return 0, int(np.argmax(s.color.entries[0] == i))


def fuse_classes(s, blocks):
    """The read-only tensor of the fusion whose class b is the union of
    the classes in block b of canonical_partition(blocks, s.d), decided on
    s's tensor alone, with no coloring built (Bannai-Ito 1984;
    Brouwer-Cohen-Neumaier 1989, section 2): fuse_canonical on a stack of
    one, raising its refusal."""
    fused = fuse_canonical(s, [canonical_partition(blocks, s.d)])[0]
    if isinstance(fused, AxiomViolation):
        raise fused
    return fused


def fuse_canonical(s, stack):
    """For each partition of stack, given as canonical_partition returns
    it and not checked again, the read-only fused IntersectionTensor, or
    the AxiomViolation that refuses it, returned unraised.

    A partition fuses iff its blocks are closed under the transpose map
    and each block sum q_IJ^l = sum_{i in I, j in J} p_ij^l is constant
    over l in every block K; those values are the fused tensor.  A
    failure is TransposeNotRelation at the first arc of the first class
    whose transpose leaves its block's image, or else
    InconsistentIntersectionNumber at the first arcs of two classes of K
    whose block sums differ, at the first such (l, I, J), with the sums as
    counts.

    The stack is decided together: its 0/1 block indicators, padded to
    d + 1 blocks, make one int64 product with p, and both tests run on
    the stacked lookup tables.  A padded block holds no class, so its sums
    are 0 and never differ.
    """
    m = s.d + 1
    luts, refs = [], []
    for blocks in stack:
        row = [0] * m
        for b, block in enumerate(blocks):
            for i in block:
                row[i] = b
        luts.append(row)
        refs.append([block[0] for block in blocks] + [0] * (m - len(blocks)))
    # lut[k, i]: the block holding class i; ref[k, b]: block b's first class
    lut = np.array(luts, dtype=np.intp).reshape(-1, m)
    ref = np.array(refs, dtype=np.intp).reshape(-1, m)
    rows = np.arange(len(stack))[:, None]
    # refl[k, i]: the first class of the block holding class i
    refl = ref[rows, lut]
    tlut = lut[:, s.transpose_map]
    tbad = tlut != tlut[rows, refl]
    ind = (lut[:, :, None] == np.arange(m)).astype(np.int64)
    # q[k, l, I, J] = sum over i in I, j in J of p[i, j, l]
    q = ind.transpose(0, 2, 1)[:, None] @ s.tensor.p.transpose(2, 0, 1) @ ind[:, None]
    mism = (q != q[rows, refl]).reshape(-1, m**3)
    first_t, first_q = tbad.argmax(axis=1).tolist(), mism.argmax(axis=1).tolist()
    out = []
    for k, (blocks, t_fails, q_fails) in enumerate(
        zip(stack, tbad.any(axis=1).tolist(), mism.any(axis=1).tolist())
    ):
        if t_fails:
            i = first_t[k]
            x, y = _first_arc(s, i)
            out.append(TransposeNotRelation(
                int(lut[k, i]), x, y, int(tlut[k, refl[k, i]]), int(tlut[k, i])
            ))
        elif q_fails:
            l2, bi, bj = np.unravel_index(first_q[k], (m, m, m))
            l1 = int(refl[k, l2])
            out.append(InconsistentIntersectionNumber(
                int(bi), int(bj), int(lut[k, l2]),
                _first_arc(s, l1), int(q[k, l1, bi, bj]),
                _first_arc(s, int(l2)), int(q[k, l2, bi, bj]),
            ))
        else:
            nb = len(blocks)
            p = np.ascontiguousarray(q[k, ref[k, :nb], :nb, :nb].transpose(1, 2, 0))
            p.setflags(write=False)
            out.append(IntersectionTensor(p))
    return out


def symmetrize(s):
    """Merge each class with its transpose.

    Returns (symmetrized scheme in canonical class order, correspondence)
    where correspondence[old_class] = new_class.  The symmetrization of a
    commutative scheme is always a scheme.  Already-symmetric schemes come
    back unchanged with the identity correspondence; that result holds s
    itself, so only the other case is memoized.
    """
    if all(s.symmetric):
        return s, tuple(range(s.d + 1))
    return _symmetrized(s)


@memoized(lambda s: ())
def _symmetrized(s):
    blocks = [[0]]
    for i in range(1, s.d + 1):
        j = s.transpose_map[i]
        if i <= j:
            blocks.append([i] if i == j else [i, j])
    canon, perm = canonical_form(Scheme(merge_classes(s, blocks), fuse_classes(s, blocks)))
    corr = [0] * (s.d + 1)
    for b, block in enumerate(blocks):
        for i in block:
            corr[i] = perm[b]
    return canon, tuple(corr)
