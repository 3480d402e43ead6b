"""Strongly regular graph parameters: extraction from schemes, eigenvalue
feasibility, and connectivity classification.

A symmetric union digraph of a scheme is strongly regular exactly when
fusing to {identity, union, complement} yields a two-class scheme; lambda
and mu are then intersection numbers of that fusion, and a failed fusion
names two pairs whose counts differ.  Weak components come from the
intersection tensor as well: the classes reachable from class 0 through
the union and its transpose form a closed subset, which every component
has as its class set.  Nothing here builds an n x n matrix (the fusion
yields only its tensor) or searches a graph.  SRG parameters, closed
subsets and union spectra are memoized on the scheme, next to its
character table, so connectivity_classification reads them without
recomputing them; fill_unions and fill_spectra decide them for many
unions at once through the memo's batch path (core.memoized's fill): one
stacked fusion product, one boolean closure over the tensor and one
block_sums call per stack.  srg_eigen works from (n, k, lambda, mu)
alone and in integers: the restricted eigenvalues and their
multiplicities follow from the quadratic whose discriminant separates the
conference case (irrational eigenvalues, equal multiplicities) from the
integral case, and irrational eigenvalues are carried as quadratic
values.  fill_spectra returns the union spectra it keeps, which the
catalog's srg check compares with srg_eigen's.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fusion
from .core import exact_int, memoized, union_classes
from .errors import InfeasibleParameters, NotAScheme, NotStronglyRegular, SrgCheckFailed
from .exact import QuadVal
from .fusion import fuse_direct
from .spectra import RESID_TOL, character_table, union_spectra, union_spectrum


@dataclass(frozen=True)
class SrgParams:
    """Parameter set (n, k, lambda, mu) with restricted eigenvalues r > s,
    their multiplicities, and the derived classification flags."""

    n: int
    k: int
    lam: int
    mu: int
    r_exact: QuadVal
    s_exact: QuadVal
    m1: int
    m2: int
    connected: bool
    conference: bool

    @property
    def r(self):
        return float(self.r_exact.to_complex().real)

    @property
    def s(self):
        return float(self.s_exact.to_complex().real)

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "lambda": self.lam,
            "mu": self.mu,
            "r": self.r,
            "s": self.s,
            "m1": self.m1,
            "m2": self.m2,
            "connected": self.connected,
            "conference": self.conference,
        }


def _validate_union(s, union):
    u = union_classes(s.d, union)
    if set(u) != {s.transpose_map[i] for i in u}:
        raise ValueError(f"union {u} is not transpose-closed")
    return u


def _components(s, union):
    """Weak components of a union digraph as (count, size).

    The classes l with p_ij^l > 0 for i already reached and j in the
    union or its transpose, grown from class 0, are the classes of the
    pairs (x, y) joined by a walk.  That closed subset is the same at every
    x, so all components have the size sum_l k_l.
    """
    size = int(np.asarray(s.valencies)[_closed_subset(s, union)].sum())
    return s.n // size, size


@memoized(lambda s, union: union)
def _closed_subset(s, union):
    return _closures(s, [union])[0]


def _closures(s, unions):
    """The closed subset of each union's classes (sorted tuples) as a
    read-only bool vector over 0..d: one boolean closure over the tensor
    for the whole stack, grown from class 0 until no union's subset
    grows."""
    m = s.d + 1
    t = s.transpose_map
    step = np.zeros((len(unions), m), dtype=np.int64)
    for k, u in enumerate(unions):
        step[k, [c for i in u for c in (i, t[i])]] = 1
    # walk[i, j, l] = 1 iff p_ij^l > 0
    walk = (s.tensor.p > 0).astype(np.int64).reshape(m, m * m)
    reached = np.zeros((len(unions), m), dtype=bool)
    reached[:, 0] = True
    while True:
        via = (reached @ walk).reshape(-1, m, m)
        grown = reached | (step[:, None] @ via)[:, 0].astype(bool)
        if np.array_equal(grown, reached):
            break
        reached = grown
    reached.setflags(write=False)
    return list(reached)


def fill_unions(s, unions):
    """Decide, for each union of unions, proper and transpose-closed as
    sorted tuples, its {union, complement} fusion and its closed subset
    into s's memo, where srg_params_from_scheme and
    connectivity_classification read them: fusion.fuses, and
    _closed_subset.fill with one _closures call per stack."""
    fusion.fuses(s, [_split(s.d, u) for u in unions])
    _closed_subset.fill(s, unions, _closures, (s.d + 1) ** 2)


def _split(d, u):
    """The partition {0}, u, complement of a proper union u of 1..d, as
    canonical_partition returns it."""
    return tuple(sorted([(0,), u, tuple(i for i in range(1, d + 1) if i not in u)]))


@memoized(lambda s, union: union)
def _spectrum(s, union):
    return union_spectrum(character_table(s), union)


def fill_spectra(s, unions):
    """The spectrum of each union of unions (sorted tuples), as
    spectra.union_spectrum gives it, kept in s's memo, where
    connectivity_classification reads it: _spectrum.fill with one
    spectra.union_spectra call on the character table per stack."""
    e = character_table(s)
    entries = (s.d + 1) ** 2 * (len(e.quarters[0]) + 2)
    return _spectrum.fill(s, unions, lambda _, stack: union_spectra(e, stack), entries)


@memoized(lambda s, union: union_classes(s.d, union))
def srg_params_from_scheme(s, union):
    """SRG parameters of a symmetric union digraph.

    k, lambda and mu are read off the tensor of the two-class fusion
    {union, complement}; when that fusion is not a scheme the union graph
    is not strongly regular, and the error message carries the fusion's
    witness: two pairs of one fused class whose counts of paths
    x -> z -> y through given fused classes differ.  The complete graph is
    excluded (no non-adjacent pairs, mu undefined).  Parameters are
    computed once per (scheme, union); a union that raises is fused again
    on the next call.
    """
    u = _validate_union(s, union)
    if len(u) == s.d:
        raise NotStronglyRegular(
            f"union {u} covers all classes; the complete graph has no mu"
        )
    k = int(sum(s.valencies[i] for i in u))
    # fused labels follow block order by smallest element; find the union
    blocks = _split(s.d, u)
    iu = blocks.index(u)
    ic = 3 - iu
    try:
        p = fuse_direct(s, blocks).p
    except NotAScheme as exc:
        raise _not_strongly_regular(u, exc.witness, {iu: "union", ic: "complement"}) from exc
    # the union is symmetric, so its fused valency is p_{uu}^0
    if int(p[iu, iu, 0]) != k:
        raise SrgCheckFailed(
            f"fused union class has valency {int(p[iu, iu, 0])}, not {k}", u, "valency"
        )
    lam = int(p[iu, iu, iu])
    mu = int(p[iu, iu, ic])
    params = srg_eigen(s.n, k, lam, mu)
    ncomp = _components(s, u)[0]
    if params.connected != (ncomp == 1):
        raise SrgCheckFailed(
            f"mu = {mu} but the union's closed subset gives {ncomp} components",
            u,
            "connectivity",
        )
    return params


def _not_strongly_regular(u, w, role):
    # built in its own frame: a local of the raising frame that held the
    # witness, whose traceback reaches back to that frame, would make a
    # cycle that keeps the scheme alive until the cycle collector runs
    return NotStronglyRegular(
        f"union {u} is not strongly regular: pairs {w.pair_a} and "
        f"{w.pair_b}, both in the {role[w.l]}, have {w.count_a} and "
        f"{w.count_b} vertices z with (x, z) in the {role[w.i]} and "
        f"(z, y) in the {role[w.j]}",
        witness=w,
    )


def srg_eigen(n, k, lam, mu):
    """Eigenvalue feasibility of an (n, k, lambda, mu) parameter set,
    decided in integers; each value must be an integer (ValueError
    otherwise).

    Requires the counting identity k(k - lambda - 1) = mu(n - k - 1).  The
    restricted eigenvalues are (lambda - mu +- sqrt(D))/2 with
    D = (lambda - mu)^2 + 4(k - mu), and the multiplicities
    ((n - 1) sqrt(D) -+ (2k + (n - 1)(lambda - mu)))/(2 sqrt(D)).  A square
    D forces integral eigenvalues and multiplicities, found by divmod; a
    non-square D is feasible only for conference parameters (equal
    multiplicities), with quadratic-irrational eigenvalues that
    QuadVal.make writes.  Degenerate r = s is rejected.
    """
    n, k, lam, mu = (exact_int(v) for v in (n, k, lam, mu))
    if not 0 < k < n or lam < 0 or mu < 0 or lam > k - 1 or mu > k:
        raise InfeasibleParameters(f"({n},{k},{lam},{mu}) out of range")
    if k * (k - lam - 1) != mu * (n - k - 1):
        raise InfeasibleParameters(
            f"counting identity fails: k(k-lambda-1) = {k * (k - lam - 1)} "
            f"but mu(n-k-1) = {mu * (n - k - 1)}"
        )
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc == 0:
        raise InfeasibleParameters(
            f"({n},{k},{lam},{mu}) collapses r = s; no two-eigenvalue split"
        )
    root = math.isqrt(disc)
    num = 2 * k - (n - 1) * (mu - lam)
    if root * root == disc:
        if (lam - mu + root) % 2:
            raise InfeasibleParameters(
                f"eigenvalues ({lam - mu} +- {root})/2 are not integers"
            )
        # m1 + m2 = n - 1, so m2 is integral exactly when m1 is
        m1, rem = divmod((n - 1) * root - num, 2 * root)
        m2 = n - 1 - m1
        if rem or m1 < 1 or m2 < 1:
            m1f = Fraction((n - 1) * root - num, 2 * root)
            raise InfeasibleParameters(
                f"multiplicities ({m1f}, {n - 1 - m1f}) are not positive integers"
            )
        r_exact = QuadVal.rational((lam - mu + root) // 2)
        s_exact = QuadVal.rational((lam - mu - root) // 2)
    else:
        # irrational eigenvalues force equal multiplicities
        if num != 0 or (n - 1) % 2:
            raise InfeasibleParameters(
                f"({n},{k},{lam},{mu}): irrational eigenvalues need the "
                "conference condition 2k = (n-1)(mu-lambda)"
            )
        m1 = m2 = (n - 1) // 2
        r_exact = QuadVal.make(Fraction(lam - mu, 2), Fraction(1, 2), disc)
        s_exact = QuadVal.make(Fraction(lam - mu, 2), Fraction(-1, 2), disc)
    return SrgParams(n, k, lam, mu, r_exact, s_exact, m1, m2, mu > 0, m1 == m2)


def connectivity_classification(s, union):
    """Component structure of a union digraph, cross-checked spectrally.

    Counts weak components from the closed subset of classes that the
    union and its transpose generate in the intersection tensor, and
    verifies two spectral laws: the multiplicity of the valency equals the
    component count (Perron root of a regular graph), and, for strongly
    regular unions other than the complete graph, disconnectedness is
    equivalent to the spectrum being {k, -1}, i.e. to a disjoint union of
    equal cliques.  The character table and the union's SrgParams are the
    scheme's memoized ones, so a caller that already asked for them pays
    for neither again.
    """
    u = _validate_union(s, union)
    ncomp, size = _components(s, u)
    k = int(sum(s.valencies[i] for i in u))
    spec = _spectrum(s, u)
    val_mult = sum(m for z, m in spec if abs(z - k) < RESID_TOL)
    clique_spec = all(
        abs(z - k) < RESID_TOL or abs(z + 1) < RESID_TOL for z, m in spec
    )
    out = {
        "components": ncomp,
        "component_sizes": [size] * ncomp,
        "valency": k,
        "valency_multiplicity": val_mult,
        "spectral_count_matches": val_mult == ncomp,
    }
    consistent = val_mult == ncomp
    try:
        srg_params_from_scheme(s, u)
        is_srg = True
    except (NotStronglyRegular, InfeasibleParameters):
        is_srg = False
    out["strongly_regular"] = is_srg
    if is_srg and k < s.n - 1:
        out["clique_union_spectrum"] = clique_spec
        out["disconnected_iff_clique_spectrum"] = (ncomp > 1) == clique_spec
        consistent = consistent and (ncomp > 1) == clique_spec
        if ncomp > 1:
            consistent = consistent and size == k + 1
    out["consistent"] = consistent
    return out
