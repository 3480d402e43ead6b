"""Fusion machinery: admissible partitions, the exact fusion oracle, the
spectral (Bannai-Muzychuk) criterion, amorphicity, the amorphic normal
form, and the row map to the symmetrization.

Two independent deciders are kept deliberately separate:

  * fuse_direct decides on the integer intersection tensor: the blocks
    must be transpose-closed and their block sums of p_ij^l constant on
    each block; it is the authoritative oracle.  It returns the fused
    tensor, or raises NotAScheme with the witness of a failure; the memo
    keeps either verdict as core.fuse_canonical returns it.  It builds no
    n x n coloring.
  * bannai_muzychuk_check groups character-table rows by their per-block
    row-sum signatures; a fusion is a scheme exactly when the number of
    groups equals the number of blocks and the valency row sits alone.

Each decider runs on a stack of partitions, and its single-partition
entry point is a stack of one.  fuses fills the memo of fuse_direct for
many partitions through the memo's own batch path (core.memoized's
fill), with core.fuse_canonical as the stack routine, and
spectral_verdicts decides many partitions with one spectra.block_sums
and one spectra.group_rows call per stack; a stack holds at most
core.STACK_ENTRIES entries in its largest array.  cross_check_fusions,
and so the catalog's fusion check and the CLI's fuse command, run both
on the whole list of admissible partitions, which
enumerate_admissible_partitions makes once per scheme, in canonical
form, so that nothing canonicalizes them again.  is_amorphic reads the
memo in order and fuses a partition that is not kept yet alone, so on a
fresh scheme it stops at the first refusal.

Amorphicity is always decided by the exact oracle.  Every comparison of
table values here (the spectral criterion, each normal-form column, the
row map) is one call of spectra.group_rows, which owns the tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    canonical_partition,
    fuse_canonical,
    memoized,
    stack_chunks,
    symmetrize,
)
from .errors import (
    AxiomViolation,
    MatchingAmbiguous,
    NormalFormUnreachable,
    NotAScheme,
    SymmetrizationCheckFailed,
    TooManyClasses,
)
from .spectra import block_sums, character_table, group_rows, pair_tests

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


@memoized(lambda s: ())
def _admissible(s):
    if s.d > MAX_ENUM_D:
        raise TooManyClasses(f"d = {s.d} exceeds enumeration guard {MAX_ENUM_D}")
    tmap = s.transpose_map
    parts = _partitions_of(range(1, s.d + 1))
    return tuple(sorted(((0,),) + part for part in parts if _is_transpose_closed(part, tmap)))


def enumerate_admissible_partitions(s):
    """All partitions of {1..d} closed under the transpose pairing as a
    block system, each extended by the singleton block {0}.

    Includes the discrete and total partitions; ordered lexicographically
    by sorted block lists, each as canonical_partition returns it.  The
    enumeration runs once per scheme; each call returns a new list.
    """
    return list(_admissible(s))


def fuse_direct(s, partition):
    """The fused IntersectionTensor, decided exactly by core.fuse_canonical.

    New class labels follow block order (blocks sorted by smallest
    element, {0} first); no canonical relabeling is applied, so fused
    class j corresponds to partition block j.  Raises NotAScheme with the
    witness of core.fuse_canonical when the fusion is not a scheme.  Each
    verdict is kept in s's memo as fuse_canonical returns it: the
    read-only tensor, or the unraised witness, from which every call
    raises a fresh NotAScheme with the same message and witness fields.
    """
    blocks = canonical_partition(partition, s.d)
    fused = _fuse_direct(s, blocks)
    if isinstance(fused, AxiomViolation):
        witness = _fresh(fused)
        message = f"fusion by {blocks} is not a scheme: {fused}"
        raise NotAScheme(message, witness=witness) from witness
    return fused


def _fresh(exc):
    """An exception of exc's type with its args and fields, and no
    traceback, cause or context.  The memo keeps each witness unraised: a
    raised one would carry a traceback whose frames hold the scheme, and
    the memo would then hold its own scheme.  So each refusal raises a
    copy."""
    new = type(exc).__new__(type(exc), *exc.args)
    new.__dict__.update(vars(exc))
    return new


@memoized(lambda s, blocks: blocks)
def _fuse_direct(s, blocks):
    # blocks are canonical: the memo key, the message and the fusion share
    # one canonical_partition
    return fuse_canonical(s, [blocks])[0]


def fuses(s, partitions):
    """Whether each partition, given as canonical_partition returns it,
    fuses to a scheme: fuse_direct's verdict, kept in s's memo.  The
    partitions not decided yet go through _fuse_direct.fill, one
    fuse_canonical product per stack of at most core.STACK_ENTRIES tensor
    entries."""
    verdicts = _fuse_direct.fill(s, partitions, fuse_canonical, (s.d + 1) ** 3)
    return [not isinstance(v, AxiomViolation) for v in verdicts]


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
    This is spectral_verdicts on one partition.
    """
    return spectral_verdicts(e, [canonical_partition(partition, e.d)])[0]


def spectral_verdicts(e, partitions):
    """bannai_muzychuk_check's FusionVerdict on each partition, given as
    canonical_partition returns it, from one block_sums and one group_rows
    call per stack of at most core.STACK_ENTRIES compared entries.

    When there are more row groups than blocks, the witness names the
    first block where the first rows of the last two groups that a dual
    partition would have to merge differ decisively: at the tolerance
    and on the keys that group_rows decided them with.
    """
    m = e.d + 1
    out = []
    for chunk in stack_chunks(partitions, m**3 * (len(e.quarters[0]) + 2)):
        sums, keys = block_sums(e, chunk)
        tests = pair_tests(sums, keys)
        for k, (blocks, groups) in enumerate(zip(chunk, group_rows(sums, keys, tests))):
            nb = len(blocks)
            if len(groups) == nb and groups[0] == (0,):
                fused = sums[k, [g[0] for g in groups], :nb]
                out.append(FusionVerdict(blocks, True, tuple(groups), fused, None))
                continue
            if groups[0] != (0,) and len(groups) <= nb:
                witness = {"perron_group": sorted(groups[0])}
            else:
                # more signature groups than blocks: any dual partition would
                # have to merge two rows whose sums differ decisively in some
                # block, so the search ends
                r1, r2 = groups[nb - 1][0], groups[nb][0]
                bad = int(np.argmax(tests[0][k, r1, r2, :nb]))
                witness = {
                    "block": bad,
                    "rows": [r1, r2],
                    "sums": [
                        [sums[k, r1, bad].real, sums[k, r1, bad].imag],
                        [sums[k, r2, bad].real, sums[k, r2, bad].imag],
                    ],
                }
            out.append(FusionVerdict(blocks, False, None, None, witness))
    return out


def cross_check_fusions(s, partitions):
    """Both deciders on each partition, given as canonical_partition
    returns it, in order: a list of the spectral FusionVerdict from s's
    character table and whether fuse_direct fuses.  Each decider takes
    the partitions in stacks (spectral_verdicts, fuses)."""
    verdicts = spectral_verdicts(character_table(s), partitions)
    return list(zip(verdicts, fuses(s, partitions)))


def is_amorphic(s):
    """Exhaustive exact amorphicity check.

    True iff every admissible partition fuses to a scheme; the
    certificate records the partition count or the first failure.  The
    partitions are read in order from s's memo, where a check that fused
    them all in stacks has kept them; the first one not kept is fused
    alone, so a scheme with an empty memo stops at its first refusal.
    """
    parts = _admissible(s)
    for part in parts:
        if isinstance(_fuse_direct(s, part), AxiomViolation):
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
    sums, keys = block_sums(e, [[(c,)] for c in range(1, d + 1)])
    for c, groups in enumerate(group_rows(sums[:, 1:], keys[:, 1:]), 1):
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
    classes, stacked with the symmetrization's rows, with both tables'
    keys on one basis, decides it: each
    group must hold exactly one symmetrization row, else
    SymmetrizationCheckFailed.  Both tables are the memoized ones.
    """
    sym, corr = symmetrize(x)
    blocks = [[i for i in range(x.d + 1) if corr[i] == c] for c in range(sym.d + 1)]
    x_t, sym_t = character_table(x), character_table(sym)
    basis = sorted(set(x_t.quarters[0]) | set(sym_t.quarters[0]))
    x_sums, x_keys = block_sums(x_t, [blocks], basis)
    s_sums, s_keys = block_sums(sym_t, [[(c,) for c in range(sym.d + 1)]], basis)
    m = x.d + 1
    row_map = [None] * (sym.d + 1)
    (groups,) = group_rows(
        np.concatenate([x_sums, s_sums], axis=1), np.concatenate([x_keys, s_keys], axis=1)
    )
    for g in groups:
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
