"""Closed-form size conditions for biclique unions with no k x k independent set.

Four families of inequalities are evaluated: the counting bound tied to the
average degree, the vertex-sum bound for general-graph coverings, the
two-branch condition on normalized sizes (quadratic below 1, linear above),
and the entropy condition minimized over index subsets.

All logarithms are base 2 throughout the library: the deletion refuter's
survival probabilities are powers of two, and fixing one base keeps every
threshold comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .core import BicliqueFamily, BipartiteGraph, _union_rows

__all__ = [
    "Constants",
    "ProfileEntry",
    "NormalizedProfile",
    "ConditionCheck",
    "DegreeBound",
    "KstCheck",
    "AsymmetricResult",
    "BoundReport",
    "binary_entropy",
    "log2_binomial",
    "kst_check",
    "kst_degree_lower_bound",
    "hansel_check",
    "symmetric_condition",
    "asymmetric_condition",
    "asymmetric_value_at",
    "profile_from_family",
    "profile_from_normalized",
    "bound_report",
]


@dataclass(frozen=True)
class Constants:
    """Threshold constants; the theory only proves they exist, so they are
    runtime configuration with desk-scale defaults."""

    A: float = 2.0  # symmetric sufficient
    B: float = 0.01  # symmetric necessary
    C: float = 2.0  # asymmetric sufficient
    D: float = 0.01  # asymmetric necessary

    def __post_init__(self) -> None:
        for name in "ABCD":
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"constant {name} must be positive, got {value!r}")


class ConditionCheck(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


class DegreeBound(NamedTuple):
    degree_bound: float
    edge_bound: float


class KstCheck(NamedTuple):
    """The counting check on a union graph and the bounds it forces."""

    lhs: float
    rhs: float
    satisfied: bool
    degree_bound: float
    edge_bound: float


class AsymmetricResult(NamedTuple):
    min_over_x: float
    argmin_x: frozenset[int]
    rhs: float
    satisfied: bool


def binary_entropy(p: float) -> float:
    """Binary entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def log2_binomial(x: float, k: int) -> float:
    """log2 of the generalized binomial C(x, k) for real x and integer k >= 0.

    Returns -inf for x < k: the counting arguments here treat a binomial over
    a negative-or-too-short range as an empty count.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0.0
    if x < k:
        return -math.inf
    return (
        math.lgamma(x + 1.0) - math.lgamma(k + 1.0) - math.lgamma(x - k + 1.0)
    ) / math.log(2.0)


def kst_check(g: BipartiteGraph, k: int) -> ConditionCheck:
    """Average-degree counting check: n * C(n - dbar, k) / C(n, k) <= k - 1.

    Every square bipartite graph with no k x k independent set satisfies it.
    The reported lhs is computed in log space, so n in the thousands cannot
    overflow. ``satisfied`` is decided in integers, since projective-plane
    complements meet the bound with equality and the float lhs can round
    above it: with E edges, n - dbar = (n^2 - E)/n, and multiplied through by
    n^k k! the check is n * prod(n^2 - E - i*n) <= (k - 1) * n^k * prod(n - i)
    over i < k, where C(x, k) = 0 for x < k makes the left side 0.
    """
    if g.n_left != g.n_right:
        raise ValueError("counting check requires equal side sizes")
    n = g.n_left
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    edges = g.edge_count
    log2_lhs = math.log2(n) + log2_binomial(n - edges / n, k) - log2_binomial(n, k)
    lhs = 0.0 if log2_lhs == -math.inf else 2.0 ** log2_lhs
    missing = n * n - edges
    scaled_lhs = n * math.prod(missing - i * n for i in range(k)) if missing >= k * n else 0
    satisfied = scaled_lhs <= (k - 1) * n ** k * math.prod(range(n - k + 1, n + 1))
    return ConditionCheck(lhs, float(k - 1), satisfied)


def kst_degree_lower_bound(n: int, k: int) -> DegreeBound:
    """Average degree forced by the counting bound, and the matching edge form."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    log_ratio = math.log2(n / (k - 1))
    degree = (n - k + 1) * log_ratio / (k + log_ratio)
    return DegreeBound(degree, n * degree)


def hansel_check(sizes: Iterable[int], n: int, k: int) -> ConditionCheck:
    """Vertex-sum bound for coverings of a general n-vertex set.

    ``sizes`` holds, per placed complete bipartite graph, its total vertex
    count (both sides; a balanced placement on a+a vertices contributes 2a).
    Any placement whose union has no independent set of size k satisfies
    sum(sizes) >= n * log2(n / (k - 1)).
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    lhs = float(sum(sizes))
    rhs = n * math.log2(n / (k - 1))
    return ConditionCheck(lhs, rhs, lhs >= rhs)


# ---------------------------------------------------------------------------
# Normalized profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    """One biclique's normalized sizes and the per-index condition terms."""

    alpha: float
    beta: float
    p: float
    entropy_term: float
    product_term: float
    degenerate: bool

    @classmethod
    def make(cls, alpha: float, beta: float) -> "ProfileEntry":
        if alpha < 0 or beta < 0:
            raise ValueError(f"normalized sizes must be >= 0, got ({alpha}, {beta})")
        total = alpha + beta
        if total == 0.0:
            # Empty biclique: p fixed at 0 by convention, both terms vanish.
            return cls(alpha, beta, 0.0, 0.0, 0.0, True)
        p = alpha / total
        return cls(alpha, beta, p, total * binary_entropy(p), alpha * beta, False)


@dataclass(frozen=True)
class NormalizedProfile:
    """Per-biclique (alpha, beta) values for a family on n+n vertices, target k."""

    n: int
    k: int
    entries: tuple[ProfileEntry, ...]
    in_theorem_regime: bool

    @property
    def is_symmetric(self) -> bool:
        return all(e.alpha == e.beta for e in self.entries)


def _regime_flag(n: int, k: int, entries: Iterable[ProfileEntry]) -> bool:
    if n < 2:
        return False
    if not n ** 0.1 <= k <= n ** 0.9:
        return False
    lo, hi = n ** -0.01, n ** 0.01
    return all(lo <= e.alpha <= hi and lo <= e.beta <= hi for e in entries)


def profile_from_family(family: BicliqueFamily) -> NormalizedProfile:
    """Normalize side sizes by n/k: a biclique of m x m2 vertices maps to
    (m * k / n, m2 * k / n)."""
    scale = family.k / family.n
    entries = tuple(
        ProfileEntry.make(m * scale, m2 * scale) for m, m2 in family.side_cardinalities()
    )
    return NormalizedProfile(family.n, family.k, entries, _regime_flag(family.n, family.k, entries))


def profile_from_normalized(
    n: int, k: int, pairs: Iterable[tuple[float, float]]
) -> NormalizedProfile:
    entries = tuple(ProfileEntry.make(a, b) for a, b in pairs)
    return NormalizedProfile(n, k, entries, _regime_flag(n, k, entries))


def symmetric_condition(profile: NormalizedProfile, constant: float) -> ConditionCheck:
    """Two-branch sum (alpha^2 below 1, alpha above) against constant * k * log2 n."""
    for i, e in enumerate(profile.entries):
        if e.beta != e.alpha:
            raise ValueError(f"entry {i} is asymmetric ({e.alpha} != {e.beta})")
    lhs = 0.0
    for e in profile.entries:
        lhs += e.alpha * e.alpha if e.alpha <= 1.0 else e.alpha
    rhs = constant * profile.k * math.log2(profile.n)
    return ConditionCheck(lhs, rhs, lhs >= rhs)


def asymmetric_condition(profile: NormalizedProfile, constant: float) -> AsymmetricResult:
    """Minimum over all index subsets X of

        sum_{i in X} alpha_i * beta_i  +  sum_{i not in X} (alpha_i + beta_i) * H(p_i)

    The objective is separable, so the minimum is the per-index minimum of the
    two terms; ties go into X, which makes the argmin deterministic. The
    "for every X" condition holds iff this minimum clears the threshold.
    Degenerate (empty) entries add 0 to every X and are left out of the argmin,
    which is given in the profile's own indices.
    """
    argmin = set()
    total = 0.0
    for i, e in enumerate(profile.entries):
        if e.degenerate:
            continue
        if e.product_term <= e.entropy_term:
            argmin.add(i)
            total += e.product_term
        else:
            total += e.entropy_term
    rhs = constant * profile.k * math.log2(profile.n)
    return AsymmetricResult(total, frozenset(argmin), rhs, total >= rhs)


def asymmetric_value_at(profile: NormalizedProfile, marked: Iterable[int]) -> float:
    """The asymmetric objective at one specific marked subset X."""
    marked = set(marked)
    total = 0.0
    for i, e in enumerate(profile.entries):
        total += e.product_term if i in marked else e.entropy_term
    return total


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form check evaluated on one family, JSON-ready."""

    n: int
    k: int
    r: int
    in_theorem_regime: bool
    kst: KstCheck
    hansel: ConditionCheck
    symmetric_lhs: float | None
    asymmetric_min: float
    asymmetric_argmin_x: tuple[int, ...]
    rhs_unit: float  # k * log2 n; multiply by a constant to get a threshold
    constants: Constants
    # Each constant times rhs_unit; derived, so left out of == and hash.
    thresholds: dict[str, float] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        thresholds = {name: getattr(self.constants, name) * self.rhs_unit for name in "ABCD"}
        object.__setattr__(self, "thresholds", thresholds)


def bound_report(family: BicliqueFamily, constants: Constants = Constants()) -> BoundReport:
    profile = profile_from_family(family)
    union = BipartiteGraph(family.n, family.n, _union_rows(family.left, family.right, family.n))
    kst = kst_check(union, family.k)
    if family.k >= 2:
        degree = kst_degree_lower_bound(family.n, family.k)
        hansel = hansel_check(
            (m + m2 for m, m2 in family.side_cardinalities()), family.n, family.k
        )
    else:
        degree = DegreeBound(0.0, 0.0)
        hansel = ConditionCheck(float(sum(m + m2 for m, m2 in family.side_cardinalities())), 0.0, True)
    symmetric_lhs: float | None
    if profile.is_symmetric:
        symmetric_lhs = symmetric_condition(profile, 0.0).lhs
    else:
        symmetric_lhs = None
    asym = asymmetric_condition(profile, 0.0)
    return BoundReport(
        n=family.n,
        k=family.k,
        r=family.size,
        in_theorem_regime=profile.in_theorem_regime,
        kst=KstCheck(*kst, *degree),
        hansel=hansel,
        symmetric_lhs=symmetric_lhs,
        asymmetric_min=asym.min_over_x,
        asymmetric_argmin_x=tuple(sorted(asym.argmin_x)),
        rhs_unit=family.k * math.log2(family.n) if family.n > 1 else 0.0,
        constants=constants,
    )
