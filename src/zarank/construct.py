"""Random biclique placement and union-bound certification.

A certificate is a log-space evaluation of (prod_i miss_i) * C(n, k)^2: when
it is below 1 (log2 < 0), placing the given sizes uniformly at random yields,
with positive probability, a union with no k x k independent set. Exact mode
uses the hypergeometric miss probability and compares the product with 1 in
rationals; relaxed mode the exponential upper bound, so an exact certificate
holds whenever a relaxed one does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import DEFAULT_NODE_BUDGET, BicliqueFamily, RandomSource, SubsetSampler, union_of
from .witness import WitnessResult, has_kxk_independent_set

__all__ = [
    "MissProbability",
    "ConstructionCertificate",
    "ConstructResult",
    "miss_probability_exact",
    "miss_probability_exact_fraction",
    "miss_probability_relaxed",
    "miss_probability_bound",
    "miss_probability",
    "certify_union_bound",
    "random_family",
    "construct_until_verified",
]

_LN2 = math.log(2.0)


def _avoid_fraction(n: int, k: int, m: int) -> Fraction:
    """Probability that a uniform m-subset of [0, n) misses a fixed k-set."""
    if not 0 <= k <= n or not 0 <= m <= n:
        raise ValueError(f"need 0 <= k, m <= n, got n={n}, k={k}, m={m}")
    if m > n - k:
        return Fraction(0)
    return Fraction(math.comb(n - k, m), math.comb(n, m))


def miss_probability_exact_fraction(n: int, k: int, m: int, n2: int) -> Fraction:
    """Exact probability that a random m x n2 biclique puts no edge into a
    fixed k x k rectangle: 1 - (1 - C(n-k,m)/C(n,m)) (1 - C(n-k,n2)/C(n,n2))."""
    a = _avoid_fraction(n, k, m)
    b = _avoid_fraction(n, k, n2)
    return 1 - (1 - a) * (1 - b)


def miss_probability_exact(n: int, k: int, m: int, n2: int) -> float:
    return float(miss_probability_exact_fraction(n, k, m, n2))


def miss_probability_relaxed(alpha: float, beta: float) -> float:
    """Exponential relaxation 1 - (1 - e^-alpha)(1 - e^-beta); dominates the
    exact form because each avoid probability is at most e^-alpha."""
    if alpha < 0 or beta < 0:
        raise ValueError(f"normalized sizes must be >= 0, got ({alpha}, {beta})")
    return math.exp(-alpha) + math.exp(-beta) - math.exp(-alpha - beta)


def miss_probability_bound(alpha: float) -> float:
    """Two-branch upper bound on the symmetric relaxed miss probability:
    exp(-alpha^2/3) up to alpha = 1, exp(-(1 - ln 2) alpha) beyond."""
    if alpha < 0:
        raise ValueError(f"normalized size must be >= 0, got {alpha}")
    if alpha <= 1.0:
        return math.exp(-alpha * alpha / 3.0)
    return math.exp(-(1.0 - _LN2) * alpha)


@dataclass(frozen=True)
class MissProbability:
    """The three forms side by side; ``bound`` only exists symmetrically."""

    exact: float
    relaxed: float
    bound: Optional[float]


def miss_probability(n: int, k: int, m: int, n2: int) -> MissProbability:
    alpha = m * k / n
    beta = n2 * k / n
    return MissProbability(
        exact=miss_probability_exact(n, k, m, n2),
        relaxed=miss_probability_relaxed(alpha, beta),
        bound=miss_probability_bound(alpha) if m == n2 else None,
    )


def _log2_fraction(value: Fraction) -> float:
    if value < 0:
        raise ValueError("log2 of a negative rational")
    if value == 0:
        return -math.inf
    return math.log2(value.numerator) - math.log2(value.denominator)


def _log2_relaxed(alpha: float, beta: float) -> float:
    # p = e^-s (1 + e^-(t-s) - e^-t) with s = min: stable for large arguments.
    s, t = min(alpha, beta), max(alpha, beta)
    inner = 1.0 + math.exp(-(t - s)) - math.exp(-t)
    return (-s + math.log(inner)) / _LN2


@dataclass(frozen=True)
class ConstructionCertificate:
    """Union-bound verdict: certified iff the failure bound is below 1, which
    exact mode decides in rationals and relaxed mode as log2_failure_bound < 0."""

    n: int
    k: int
    mode: str
    per_index_log2_miss: tuple[float, ...]
    log2_failure_bound: float
    certified: bool


def _check_sizes(n: int, sizes: Sequence[tuple[int, int]]) -> None:
    for idx, (m, n2) in enumerate(sizes):
        if not 0 <= m <= n or not 0 <= n2 <= n:
            raise ValueError(f"sizes[{idx}] = ({m}, {n2}) does not fit in [0, {n}]")


def certify_union_bound(
    n: int, k: int, sizes: Iterable[tuple[int, int]], mode: str = "exact"
) -> ConstructionCertificate:
    """Evaluate sum_i log2(miss_i) + 2 log2 C(n, k) in log space, once per
    distinct size.

    In exact mode ``certified`` is decided in rationals, prod_i miss_i *
    C(n, k)^2 < 1, with each distinct size's miss probability raised to its
    multiplicity, so a product of exactly 1 is never certified by rounding.
    Relaxed mode decides on the float sum.
    """
    if mode not in ("exact", "relaxed"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    sizes = [(int(m), int(n2)) for m, n2 in sizes]
    _check_sizes(n, sizes)
    counts = Counter(sizes)
    if mode == "exact":
        misses = {size: miss_probability_exact_fraction(n, k, *size) for size in counts}
        logs = {size: _log2_fraction(miss) for size, miss in misses.items()}
    else:
        logs = {(m, n2): _log2_relaxed(m * k / n, n2 * k / n) for m, n2 in counts}
    per_index = tuple(logs[size] for size in sizes)
    total = sum(per_index) + 2.0 * math.log2(math.comb(n, k))
    if mode == "exact":
        certified = math.prod(misses[size] ** count for size, count in counts.items()) * math.comb(n, k) ** 2 < 1
    else:
        certified = total < 0.0
    return ConstructionCertificate(
        n=n,
        k=k,
        mode=mode,
        per_index_log2_miss=per_index,
        log2_failure_bound=total,
        certified=certified,
    )


def random_family(
    n: int, k: int, sizes: Iterable[tuple[int, int]], rng: RandomSource
) -> BicliqueFamily:
    """Independent uniform placements: the i-th biclique takes a uniform
    m_i-subset on the left and n_i-subset on the right. Deterministic given
    the random source."""
    sizes = [(int(m), int(n2)) for m, n2 in sizes]
    _check_sizes(n, sizes)
    gen = rng.rng()
    left_sampler = SubsetSampler(n, gen)
    right_sampler = SubsetSampler(n, gen)
    pairs = [
        (left_sampler.draw_list(m), right_sampler.draw_list(n2)) for m, n2 in sizes
    ]
    return BicliqueFamily.from_index_lists(n, k, pairs)


class ConstructResult(NamedTuple):
    """The verified family, or the last one drawn with the evidence against it
    (a witness, or a spent node budget) when no attempt verified."""

    family: BicliqueFamily
    attempts: int
    verification: WitnessResult


def construct_until_verified(
    n: int,
    k: int,
    sizes: Iterable[tuple[int, int]],
    rng: RandomSource,
    max_attempts: int = 16,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConstructResult:
    """Draw random families until one verifiably has no k x k independent set.

    Each attempt derives its own stream from ``rng``, so reruns are identical
    and attempts could be farmed out in parallel. An attempt whose
    verification exceeds the node budget counts as unverified, not failed.
    A failed construction is a result, not an error: after ``max_attempts``
    the last family and its evidence are returned, so callers test
    ``result.verification.found is False``.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    sizes = [(int(m), int(n2)) for m, n2 in sizes]
    for attempt in range(1, max_attempts + 1):
        family = random_family(n, k, sizes, rng.derive(attempt))
        verification = has_kxk_independent_set(union_of(family), k, node_budget)
        if verification.found is False:
            break
    return ConstructResult(family, attempt, verification)
