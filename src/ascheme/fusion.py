"""Fusion machinery: admissible partitions, the exact fusion oracle, the
spectral (Bannai-Muzychuk) criterion, amorphicity, the amorphic normal
form, and the row map to the symmetrization.

Two independent deciders are kept deliberately separate:

  * fuse_direct decides on the integer intersection tensor: the blocks
    must be transpose-closed and their block sums of p_ij^l constant on
    each block; it is the authoritative oracle.  It returns the fused
    tensor, or raises NotAScheme with the witness of a failure; either
    verdict is kept in the scheme's memo.  It builds no n x n coloring.
  * bannai_muzychuk_check groups character-table rows by their per-block
    row-sum signatures; a fusion is a scheme exactly when the number of
    groups equals the number of blocks and the valency row sits alone.

Amorphicity is always decided by the exact oracle.  Every comparison of
table values here (the spectral criterion, each normal-form column, the
row map) is one call of spectra.group_rows, which owns the tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .core import canonical_partition, fuse_canonical, memoized, symmetrize
from .errors import (
    AxiomViolation,
    MatchingAmbiguous,
    NormalFormUnreachable,
    NotAScheme,
    SymmetrizationCheckFailed,
    TooManyClasses,
)
from .spectra import block_sums, character_table, group_rows

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


def fuse_direct(s, partition):
    """The fused IntersectionTensor, decided exactly by core.fuse_classes.

    New class labels follow block order (blocks sorted by smallest
    element, {0} first); no canonical relabeling is applied, so fused
    class j corresponds to partition block j.  Raises NotAScheme with the
    witness of core.fuse_classes when the fusion is not a scheme.  Each
    verdict is kept in s's memo: the read-only tensor, or the refusal, from
    which every call raises a fresh NotAScheme with the same message and
    witness fields.
    """
    fused = _fuse_direct(s, canonical_partition(partition, s.d))
    if isinstance(fused, _Refusal):
        witness = _fresh(fused.witness)
        raise NotAScheme(fused.message, witness=witness) from witness
    return fused


@dataclass(frozen=True)
class _Refusal:
    """The memo's verdict on a partition that does not fuse: the message
    and a copy of the witness without its traceback, whose frames would
    hold the scheme."""

    message: str
    witness: AxiomViolation


def _fresh(exc):
    """An exception of exc's type with its args and fields, and no
    traceback, cause or context."""
    new = type(exc).__new__(type(exc), *exc.args)
    new.__dict__.update(vars(exc))
    return new


@memoized(lambda s, blocks: blocks)
def _fuse_direct(s, blocks):
    # blocks are canonical: the memo key, the message and the fusion share
    # one canonical_partition
    try:
        return fuse_canonical(s, blocks)
    except AxiomViolation as exc:
        return _Refusal(f"fusion by {blocks} is not a scheme: {exc}", _fresh(exc))


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


def bannai_muzychuk_check(e, partition):
    """Spectral fusion criterion on a character table.

    The fusion is a scheme iff the rows of P, grouped by their vector of
    per-block row sums, fall into exactly as many groups as there are
    blocks, with the valency row alone in its group.  The groups are then
    the dual partition and the common block sums form the fused table.
    """
    blocks = canonical_partition(partition, e.d)
    sums, forms = block_sums(e, blocks)
    groups = group_rows(sums, forms)
    ok = len(groups) == len(blocks) and groups[0] == (0,)
    if ok:
        fused = np.array([sums[g[0]] for g in groups])
        return FusionVerdict(blocks, True, tuple(groups), fused, None)
    if groups[0] != (0,) and len(groups) <= len(blocks):
        witness = {"perron_group": sorted(groups[0])}
    else:
        # more signature groups than blocks: any dual partition would have
        # to merge two rows whose sums differ in some block; group_rows
        # found one where they differ decisively, so the search ends
        r1, r2 = groups[len(blocks) - 1][0], groups[len(blocks)][0]
        pair = sums[[r1, r2]]
        bad = next(
            b
            for b in range(len(blocks))
            if len(group_rows(pair[:, b : b + 1], [[forms[r1][b]], [forms[r2][b]]])) == 2
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


def cross_check_fusions(s, partitions):
    """Both deciders on each partition, in order: yields the spectral
    FusionVerdict from s's character table and whether fuse_direct fuses."""
    e = character_table(s)
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
    row_of = {}
    for c in range(1, d + 1):
        sums, forms = block_sums(e, [(c,)])
        groups = group_rows(sums[1:], forms[1:])
        if sorted(map(len, groups)) != [1, d - 1]:
            raise NormalFormUnreachable(f"column {c} lacks a unique deviating entry")
        row_of[c] = 1 + next(g[0] for g in groups if len(g) == 1)
    if sorted(row_of.values()) != list(range(1, d + 1)):
        raise NormalFormUnreachable("deviant rows do not form a bijection")
    cp = (0,) + tuple(c for c in range(1, d + 1) if c != fix_last_col)
    if fix_last_col is not None:
        cp += (fix_last_col,)
    rp = (0,) + tuple(row_of[c] for c in cp[1:])
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
    exactly one entry (split_row) has length two.
    """

    row_map: tuple
    split_row: int

    def is_primitive_in_x(self, j):
        """Whether Ẽ_j is also a primitive idempotent of the fission."""
        return len(self.row_map[j]) == 1


def symmetrization_row_map(x):
    """row_map[j], the rows of x's table that fuse to row j of the table
    of x's symmetrization, for any commutative x.

    One group_rows call over x's rows summed on the symmetrization's
    classes, stacked with the symmetrization's rows, decides it: each
    group must hold exactly one symmetrization row, else
    SymmetrizationCheckFailed.  Both tables are the memoized ones.
    """
    sym, corr = symmetrize(x)
    blocks = [[i for i in range(x.d + 1) if corr[i] == c] for c in range(sym.d + 1)]
    x_sums, x_forms = block_sums(character_table(x), blocks)
    s_sums, s_forms = block_sums(character_table(sym), [(c,) for c in range(sym.d + 1)])
    m = x.d + 1
    row_map = [None] * (sym.d + 1)
    for g in group_rows(np.vstack([x_sums, s_sums]), x_forms + s_forms):
        syms = [j - m for j in g if j >= m]
        if len(syms) != 1:
            raise SymmetrizationCheckFailed(
                f"rows {list(g)} of x and its symmetrization group with "
                f"{len(syms)} symmetrization rows"
            )
        row_map[syms[0]] = tuple(j for j in g if j < m)
    return tuple(row_map)


def idempotent_matching(x):
    """The row map to the symmetrization of a scheme with exactly one
    nonsymmetric transpose pair.

    Exactly one symmetrization row maps to two conjugate x rows and all
    others map one-to-one; MatchingAmbiguous otherwise.
    """
    pairs = x.transpose_pairs
    if len(pairs) != 1:
        raise ValueError(
            f"idempotent matching needs exactly one transpose pair, found {len(pairs)}"
        )
    row_map = symmetrization_row_map(x)
    split = [j for j, g in enumerate(row_map) if len(g) == 2]
    singles = [j for j, g in enumerate(row_map) if len(g) == 1]
    if len(split) != 1 or len(singles) != len(row_map) - 1:
        raise MatchingAmbiguous(
            f"expected exactly one split row, found {len(split)}"
        )
    return IdempotentMatching(row_map, split[0])
