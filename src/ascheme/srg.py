"""Strongly regular graph parameters: extraction from schemes, eigenvalue
feasibility, and connectivity classification.

A symmetric union digraph of a scheme is strongly regular exactly when
fusing to {identity, union, complement} yields a two-class scheme; lambda
and mu are then intersection numbers of that fusion, and a failed fusion
names two pairs whose counts differ.  Weak components come from the
intersection tensor as well: the classes reachable from class 0 through
the union and its transpose form a closed subset, which every component
has as its class set.  Nothing here builds an n x n matrix or searches a
graph.  The eigenvalue routines work from (n, k, lambda, mu) alone: the
restricted eigenvalues and their multiplicities follow from the quadratic
whose discriminant separates the conference case (irrational eigenvalues,
equal multiplicities) from the integral case.  Everything downstream of
the discriminant is exact, with irrational eigenvalues carried as
quadratic values.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import union_classes
from .errors import InfeasibleParameters, NotAScheme, NotStronglyRegular, SrgCheckFailed
from .exact import QuadVal
from .fusion import fuse_direct
from .spectra import character_table, union_spectrum

RESID_TOL = 1e-8


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
    step = sorted({c for i in union for c in (i, s.transpose_map[i])})
    reached, grown = None, np.arange(s.d + 1) == 0
    while not np.array_equal(reached, grown):
        reached = grown
        grown = reached | s.tensor.p[np.ix_(reached, step)].any(axis=(0, 1))
    size = int(np.asarray(s.valencies)[reached].sum())
    return s.n // size, size


def srg_params_from_scheme(s, union):
    """SRG parameters of a symmetric union digraph.

    lambda and mu are read off the two-class fusion {union, complement};
    when that fusion is not a scheme the union graph is not strongly
    regular, and the error message carries the fusion's witness: two
    pairs of one fused class whose counts of paths x -> z -> y through
    given fused classes differ.  The complete graph is excluded (no
    non-adjacent pairs, mu undefined).
    """
    u = _validate_union(s, union)
    comp = [i for i in range(1, s.d + 1) if i not in u]
    if not comp:
        raise NotStronglyRegular(
            f"union {u} covers all classes; the complete graph has no mu"
        )
    k = int(sum(s.valencies[i] for i in u))
    # fused labels follow block order by smallest element; find the union
    iu = 1 if min(u) < min(comp) else 2
    ic = 3 - iu
    try:
        fused = fuse_direct(s, [[0], list(u), comp])
    except NotAScheme as exc:
        w = exc.witness
        role = {iu: "union", ic: "complement"}
        raise NotStronglyRegular(
            f"union {u} is not strongly regular: pairs {w.pair_a} and "
            f"{w.pair_b}, both in the {role[w.l]}, have {w.count_a} and "
            f"{w.count_b} vertices z with (x, z) in the {role[w.i]} and "
            f"(z, y) in the {role[w.j]}",
            witness=w,
        ) from exc
    if int(fused.valencies[iu]) != k:
        raise SrgCheckFailed(
            f"fused union class has valency {int(fused.valencies[iu])}, not {k}",
            u,
            "valency",
        )
    lam = int(fused.tensor.p[iu, iu, iu])
    mu = int(fused.tensor.p[iu, iu, ic])
    params = srg_eigen(s.n, k, lam, mu)
    ncomp = _components(s, u)[0]
    if params.connected != (ncomp == 1):
        raise SrgCheckFailed(
            f"mu = {mu} but the union's closed subset gives {ncomp} components",
            u,
            "connectivity",
        )
    return params


def srg_eigen(n, k, lam, mu):
    """Eigenvalue feasibility of an (n, k, lambda, mu) parameter set.

    Requires the counting identity k(k - lambda - 1) = mu(n - k - 1).  A
    square discriminant forces integral eigenvalues and multiplicities;
    a non-square discriminant is feasible only for conference parameters
    (equal multiplicities), with quadratic-irrational eigenvalues.
    Degenerate r = s is rejected.
    """
    n, k, lam, mu = int(n), int(k), int(lam), int(mu)
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
        r = (lam - mu + root) // 2
        s_ = (lam - mu - root) // 2
        m1f = Fraction(n - 1, 2) - Fraction(num, 2 * root)
        m2f = Fraction(n - 1, 2) + Fraction(num, 2 * root)
        if m1f.denominator != 1 or m2f.denominator != 1 or m1f < 1 or m2f < 1:
            raise InfeasibleParameters(
                f"multiplicities ({m1f}, {m2f}) are not positive integers"
            )
        m1, m2 = int(m1f), int(m2f)
        conference = m1 == m2
        r_exact = QuadVal.rational(r)
        s_exact = QuadVal.rational(s_)
    else:
        # irrational eigenvalues force equal multiplicities
        if num != 0 or (n - 1) % 2:
            raise InfeasibleParameters(
                f"({n},{k},{lam},{mu}): irrational eigenvalues need the "
                "conference condition 2k = (n-1)(mu-lambda)"
            )
        m1 = m2 = (n - 1) // 2
        conference = True
        half = Fraction(1, 2)
        base = QuadVal.rational(Fraction(lam - mu, 2))
        r_exact = base + QuadVal.sqrt_rational(disc) * half
        s_exact = base - QuadVal.sqrt_rational(disc) * half
    return SrgParams(n, k, lam, mu, r_exact, s_exact, m1, m2, mu > 0, conference)


def lambda_from_eigen(k, r, s):
    """lambda = k + r*s + r + s, inverting the eigenvalue quadratic."""
    return _integral(QuadVal.rational(k) + r * s + r + s, "lambda", k, r, s)


def mu_from_eigen(k, r, s):
    """mu = k + r*s."""
    return _integral(QuadVal.rational(k) + r * s, "mu", k, r, s)


def _integral(v, name, k, r, s):
    if not (v.is_rational and v.q.denominator == 1):
        raise InfeasibleParameters(
            f"{name} = {v} from (k, r, s) = ({k}, {r}, {s}) is not an integer"
        )
    return int(v.q)


def connectivity_classification(s, union, table=None, params=None):
    """Component structure of a union digraph, cross-checked spectrally.

    Counts weak components from the closed subset of classes that the
    union and its transpose generate in the intersection tensor, and
    verifies two spectral laws: the multiplicity of the valency equals the
    component count (Perron root of a regular graph), and, for strongly
    regular unions other than the complete graph, disconnectedness is
    equivalent to the spectrum being {k, -1}, i.e. to a disjoint union of
    equal cliques.  table is the scheme's character table, computed here
    when not given.  params is the union's SrgParams from
    srg_params_from_scheme when the caller has them; without them the
    union is fused here to decide whether it is strongly regular.
    """
    u = _validate_union(s, union)
    ncomp, size = _components(s, u)
    k = int(sum(s.valencies[i] for i in u))
    spec = union_spectrum(character_table(s) if table is None else table, u)
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
    is_srg = params is not None
    if not is_srg:
        try:
            srg_params_from_scheme(s, u)
            is_srg = True
        except (NotStronglyRegular, InfeasibleParameters):
            pass
    out["strongly_regular"] = is_srg
    if is_srg and k < s.n - 1:
        out["clique_union_spectrum"] = clique_spec
        out["disconnected_iff_clique_spectrum"] = (ncomp > 1) == clique_spec
        consistent = consistent and (ncomp > 1) == clique_spec
        if ncomp > 1:
            consistent = consistent and size == k + 1
    out["consistent"] = consistent
    return out
