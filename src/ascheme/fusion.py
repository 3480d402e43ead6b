"""Fusion machinery: admissible partitions, the exact fusion oracle, the
spectral (Bannai-Muzychuk) criterion, amorphicity, the amorphic normal
form, and idempotent matching against the symmetrization.

Two independent deciders are kept deliberately separate:

  * fuse_direct decides on the integer intersection tensor: the blocks
    must be transpose-closed and their block sums of p_ij^l constant on
    each block; it is the authoritative oracle.  It returns the fused
    tensor, kept in the scheme's memo, and builds no n x n coloring.
  * bannai_muzychuk_check groups character-table rows by their per-block
    row-sum signatures; a fusion is a scheme exactly when the number of
    groups equals the number of blocks and the valency row sits alone.

Amorphicity is always decided by the exact oracle.
"""

from dataclasses import dataclass

import numpy as np

from .core import fuse_classes, memoized, symmetrize
from .errors import (
    AxiomViolation,
    MatchingAmbiguous,
    NormalFormUnreachable,
    NotAScheme,
    SymmetrizationCheckFailed,
    ToleranceAmbiguity,
    TooManyClasses,
)
from .exact import radical_sum, radical_sum_to_complex
from .spectra import CLUSTER_TOL, character_table

MAX_ENUM_D = 12


def _partitions_of(items):
    """Set partitions in lexicographic order of their sorted block lists."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions_of(rest):
        # first starts its own block or joins an existing one; each result
        # is a sorted block list
        yield tuple(sorted([(first,)] + list(sub)))
        for i in range(len(sub)):
            blocks = [list(b) for b in sub]
            blocks[i] = sorted(blocks[i] + [first])
            yield tuple(sorted(tuple(b) for b in blocks))


def _is_transpose_closed(blocks, tmap):
    block_set = {frozenset(b) for b in blocks}
    return all(frozenset(tmap[i] for i in b) in block_set for b in blocks)


def canonical_partition(blocks, d):
    """Blocks as sorted tuples, ordered by smallest element, Λ_0 = {0} first;
    ValueError unless they partition 0..d with {0} alone ({0} may be left out)."""
    out = sorted(tuple(sorted(int(i) for i in b)) for b in blocks if len(b) > 0)
    if not out or out[0] != (0,):
        out.insert(0, (0,))
    if sorted(i for b in out for i in b) != list(range(d + 1)):
        raise ValueError(f"blocks {list(blocks)} do not partition 0..{d} with {{0}} alone")
    return tuple(out)


def enumerate_admissible_partitions(s):
    """All partitions of {1..d} closed under the transpose pairing as a
    block system, each extended by the singleton block {0}.

    Includes the discrete and total partitions; ordered lexicographically
    by sorted block lists.
    """
    if s.d > MAX_ENUM_D:
        raise TooManyClasses(f"d = {s.d} exceeds enumeration guard {MAX_ENUM_D}")
    tmap = s.transpose_map
    parts = _partitions_of(range(1, s.d + 1))
    return sorted(((0,),) + part for part in parts if _is_transpose_closed(part, tmap))


@memoized(lambda s, partition: canonical_partition(partition, s.d))
def fuse_direct(s, partition):
    """The fused IntersectionTensor, decided exactly by core.fuse_classes.

    New class labels follow block order (blocks sorted by smallest
    element, {0} first); no canonical relabeling is applied, so fused
    class j corresponds to partition block j.  Raises NotAScheme with the
    witness of core.fuse_classes when the fusion is not a scheme.  The
    read-only tensor is kept in s's memo; a failing partition stores none.
    """
    blocks = canonical_partition(partition, s.d)
    try:
        return fuse_classes(s, blocks)
    except AxiomViolation as exc:
        raise NotAScheme(
            f"fusion by {blocks} is not a scheme: {exc}", witness=exc
        ) from exc


@dataclass(frozen=True)
class FusionVerdict:
    partition: tuple
    is_scheme: bool
    dual_partition: tuple  # row groups, Λ*_0 first; None when not a scheme
    fused_table: np.ndarray  # (e+1)x(e+1) block row sums; None when not a scheme
    witness: dict  # None when a scheme

    def to_json(self):
        return {
            "partition": [list(b) for b in self.partition],
            "is_scheme": self.is_scheme,
            "dual": None
            if self.dual_partition is None
            else [list(b) for b in self.dual_partition],
            "witness": self.witness,
        }


def _block_sums(e, blocks):
    """Per-row block sums: complex matrix plus exact forms where available."""
    dp1 = e.d + 1
    sums = np.empty((dp1, len(blocks)), dtype=np.complex128)
    forms = [[None] * len(blocks) for _ in range(dp1)]
    for bi, b in enumerate(blocks):
        sums[:, bi] = e.P[:, list(b)].sum(axis=1)
        for j in range(dp1):
            vals = [e.exact[j][i] for i in b]
            if all(v is not None for v in vals):
                forms[j][bi] = radical_sum(vals)
    return sums, forms


def _group_rows(sums, forms, tol):
    """Group rows with identical signatures; ambiguity-checked.

    Two rows belong together iff every block sum agrees (exactly when
    both forms snapped, within tol otherwise).  A float disagreement in
    the (tol, 10 tol) window on rows that agree everywhere else is
    reported as ToleranceAmbiguity instead of a verdict.
    """
    dp1, nb = sums.shape
    groups = []
    for j in range(dp1):
        hit = None
        for g in groups:
            r = g[0]
            agree = True
            near_miss = False
            for b in range(nb):
                if forms[j][b] is not None and forms[r][b] is not None:
                    if forms[j][b] != forms[r][b]:
                        agree = False
                        break
                else:
                    gap = abs(sums[j, b] - sums[r, b])
                    if gap <= tol:
                        continue
                    agree = False
                    if gap < 10 * tol:
                        near_miss = True
                    break
            if agree:
                hit = g
                break
            if near_miss:
                # distinct only by a marginal float gap: check whether some
                # other block separates them decisively
                decisive = any(
                    abs(sums[j, b] - sums[r, b]) >= 10 * tol
                    or (
                        forms[j][b] is not None
                        and forms[r][b] is not None
                        and forms[j][b] != forms[r][b]
                    )
                    for b in range(nb)
                )
                if not decisive:
                    raise ToleranceAmbiguity(
                        f"rows {r} and {j} have block-sum signatures within "
                        "the ambiguity window"
                    )
        if hit is None:
            groups.append([j])
        else:
            hit.append(j)
    return [tuple(g) for g in groups]


def bannai_muzychuk_check(e, partition):
    """Spectral fusion criterion on a character table.

    The fusion is a scheme iff the rows of P, grouped by their vector of
    per-block row sums, fall into exactly as many groups as there are
    blocks, with the valency row alone in its group.  The groups are then
    the dual partition and the common block sums form the fused table.
    """
    blocks = canonical_partition(partition, e.d)
    sums, forms = _block_sums(e, blocks)
    scale = max(1.0, float(np.abs(sums).max()))
    groups = _group_rows(sums, forms, CLUSTER_TOL * scale)
    groups = sorted(groups, key=min)
    ok = len(groups) == len(blocks) and groups[0] == (0,)
    if ok:
        fused = np.array([sums[g[0]] for g in groups])
        return FusionVerdict(blocks, True, tuple(groups), fused, None)
    if groups[0] != (0,) and len(groups) <= len(blocks):
        witness = {"perron_group": sorted(groups[0])}
    else:
        # more signature groups than blocks: any dual partition would have
        # to merge two rows whose sums differ in some block
        g1, g2 = groups[len(blocks) - 1], groups[len(blocks)]
        r1, r2 = g1[0], g2[0]

        def separates(b):
            if forms[r1][b] is not None and forms[r2][b] is not None:
                return forms[r1][b] != forms[r2][b]
            return abs(sums[r1, b] - sums[r2, b]) > CLUSTER_TOL * scale

        bad = next(
            (b for b in range(len(blocks)) if separates(b)),
            int(np.argmax(np.abs(sums[r1] - sums[r2]))),
        )
        witness = {
            "block": bad,
            "rows": [r1, r2],
            "sums": [
                [sums[r1, bad].real, sums[r1, bad].imag],
                [sums[r2, bad].real, sums[r2, bad].imag],
            ],
        }
    return FusionVerdict(blocks, False, None, None, witness)


def cross_check_fusions(s, e, partitions):
    """Both deciders on each partition, in order: yields the spectral
    FusionVerdict from table e and whether fuse_direct fuses."""
    for blocks in partitions:
        verdict = bannai_muzychuk_check(e, blocks)
        try:
            fuse_direct(s, blocks)
            direct = True
        except NotAScheme:
            direct = False
        yield verdict, direct


def is_amorphic(s):
    """Exhaustive exact amorphicity check.

    True iff every admissible partition fuses to a scheme; the
    certificate records the partition count or the first failure.
    """
    parts = enumerate_admissible_partitions(s)
    for part in parts:
        try:
            fuse_direct(s, part)
        except NotAScheme:
            return False, {
                "is_amorphic": False,
                "witness": [list(b) for b in part],
            }
    return True, {"is_amorphic": True, "partitions_checked": len(parts)}


def _entries_equal(e, r1, c1, r2, c2, tol):
    a, b = e.exact[r1][c1], e.exact[r2][c2]
    if a is not None and b is not None:
        return a == b
    return abs(e.P[r1, c1] - e.P[r2, c2]) <= tol


@dataclass(frozen=True)
class NormalForm:
    """Character table in the amorphic shape: after applying row_perm and
    col_perm, column i has the single deviating entry b_i on row i and
    the common value a_i on every other non-top row."""

    P: np.ndarray
    row_perm: tuple  # row_perm[i] = original row placed at position i
    col_perm: tuple  # col_perm[i] = original column placed at position i
    a: tuple
    b: tuple


def _pattern_fits(e, row_perm, col_perm, tol):
    d = e.d
    for pos in range(1, d + 1):
        c = col_perm[pos]
        dev = row_perm[pos]
        others = [row_perm[q] for q in range(1, d + 1) if q != pos]
        for r1 in others[1:]:
            if not _entries_equal(e, others[0], c, r1, c, tol):
                return False
        if others and _entries_equal(e, others[0], c, dev, c, tol):
            return False  # a_i = b_i not allowed
    return True


def amorphic_normal_form(e, fix_last_col=None):
    """Permute rows/columns of an amorphic symmetric table into the
    deviant-diagonal shape; returns the permutations and vectors a, b.

    Each column's deviant entry is the one row that differs from the d - 1
    others; the deviant rows must form a bijection with the columns.  The
    columns keep their order (the lexicographically first fit), except
    that fix_last_col, a class in 1..d, is pinned to the final position;
    each column's deviant row takes its position.  Raises ValueError for
    d < 3, where the shape says nothing, and NormalFormUnreachable when no
    permutation fits.
    """
    d = e.d
    if d < 3:
        raise ValueError(f"the amorphic normal form needs d >= 3, got d = {d}")
    if fix_last_col is not None and not 1 <= fix_last_col <= d:
        raise ValueError(f"fix_last_col must be a class in 1..{d}, got {fix_last_col}")
    scale = max(1.0, float(np.abs(e.P).max()))
    tol = CLUSTER_TOL * scale
    row_of = {}
    for c in range(1, d + 1):
        votes = {}
        for r in range(1, d + 1):
            key = next((k for k in votes if _entries_equal(e, r, c, k, c, tol)), r)
            votes.setdefault(key, []).append(r)
        singles = [rs for rs in votes.values() if len(rs) == 1]
        majors = [rs for rs in votes.values() if len(rs) == d - 1]
        if len(singles) != 1 or len(majors) != 1:
            raise NormalFormUnreachable(f"column {c} lacks a unique deviating entry")
        row_of[c] = singles[0][0]
    if sorted(row_of.values()) != list(range(1, d + 1)):
        raise NormalFormUnreachable("deviant rows do not form a bijection")
    cp = (0,) + tuple(c for c in range(1, d + 1) if c != fix_last_col)
    if fix_last_col is not None:
        cp += (fix_last_col,)
    rp = (0,) + tuple(row_of[c] for c in cp[1:])
    if not _pattern_fits(e, rp, cp, tol):
        raise NormalFormUnreachable(
            "no row/column permutation reaches the amorphic shape"
        )
    P = e.P[list(rp)][:, list(cp)].copy()
    a, b = [], []
    for pos in range(1, d + 1):
        b.append(complex(P[pos, pos]))
        a.append(complex(P[2 if pos == 1 else 1, pos]))
    return NormalForm(P, rp, cp, tuple(a), tuple(b))


@dataclass(frozen=True)
class IdempotentMatching:
    """Row correspondence between a one-pair scheme and its symmetrization.

    row_map[j] lists the x-table rows fusing to symmetrization row j;
    exactly one entry (split_row) has length two.  class_map[i] is the
    symmetrization class of x-class i.
    """

    sym: object
    class_map: tuple
    row_map: tuple
    split_row: int

    def is_primitive_in_x(self, j):
        """Whether Ẽ_j is also a primitive idempotent of the fission."""
        return len(self.row_map[j]) == 1


def idempotent_matching(x):
    """Match symmetrization eigenrows to x eigenrows via block sums.

    Requires exactly one nonsymmetric transpose pair.  Exactly one
    symmetrization row maps to two conjugate x rows; all others map
    one-to-one.  MatchingAmbiguous signals a tolerance collision.  The
    symmetrization and both character tables are the memoized ones, which
    the theorem checks read as well.
    """
    pairs = x.transpose_pairs
    if len(pairs) != 1:
        raise ValueError(
            f"idempotent matching needs exactly one transpose pair, found {len(pairs)}"
        )
    sym, corr = symmetrize(x)
    x_t, sym_t = character_table(x), character_table(sym)
    # fuse x rows along the symmetrization partition
    blocks = [()] * (sym.d + 1)
    for i in range(x.d + 1):
        blocks[corr[i]] = blocks[corr[i]] + (i,)
    verdict = bannai_muzychuk_check(x_t, blocks)
    if not verdict.is_scheme:
        raise SymmetrizationCheckFailed(
            f"spectral criterion rejects the symmetrization fusion {verdict.partition}"
        )
    # map each dual group to the symmetrization row with identical sums;
    # the verdict's blocks are sorted by smallest element = class order
    order = {b: bi for bi, b in enumerate(verdict.partition)}
    col_of = [order[tuple(sorted(blocks[c]))] for c in range(sym.d + 1)]
    scale = max(1.0, float(np.abs(sym_t.P).max()))
    tol = CLUSTER_TOL * scale
    row_map = [None] * (sym.d + 1)
    for g, fused in zip(verdict.dual_partition, verdict.fused_table):
        vec = fused[col_of]
        dists = np.abs(sym_t.P - vec[None, :]).max(axis=1)
        near = np.flatnonzero(dists <= 10 * tol)
        if len(near) != 1 or dists[near[0]] > tol:
            raise MatchingAmbiguous(
                f"fused row group {g} matches {len(near)} symmetrization rows"
            )
        j = int(near[0])
        if row_map[j] is not None:
            raise MatchingAmbiguous(
                f"symmetrization row {j} matched by two fused groups"
            )
        row_map[j] = tuple(g)
    split = [j for j, g in enumerate(row_map) if len(g) == 2]
    singles = [j for j, g in enumerate(row_map) if len(g) == 1]
    if len(split) != 1 or len(singles) != sym.d:
        raise MatchingAmbiguous(
            f"expected exactly one split row, found {len(split)}"
        )
    return IdempotentMatching(sym, tuple(corr), tuple(row_map), split[0])
