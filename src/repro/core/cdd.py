"""Conditional differential dependency (CDD) rules — paper Definition 3.

A CDD ``(X -> A_j, phi[X A_j])`` has per-determinant constraints that are
either a *distance interval* ``[eps.min, eps.max]`` (with the paper's
relaxation ``0 <= eps.min < eps.max``) or a *constant value* ``v`` (editing-
rule style: ``r[A_x] = s[A_x] = v``), plus a dependent-attribute distance
interval ``A_j.I``. A plain DD rule is a CDD whose interval constraints all
start at 0 and which has no constant constraints.

Rules are distance-function agnostic: ``satisfies`` takes a ``dist``
callable, so unit tests can use ``abs(a-b)`` on numbers (paper Examples 2-4)
while the pipeline uses Jaccard distance on token sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence


@dataclass(frozen=True)
class Constraint:
    """Constraint on one determinant attribute: interval or constant."""

    attr: int                       # attribute index A_x
    interval: tuple[float, float] | None = None   # [eps.min, eps.max]
    constant: object | None = None  # v in dom(A_x)

    def __post_init__(self):
        if (self.interval is None) == (self.constant is None):
            raise ValueError("exactly one of interval/constant must be set")
        if self.interval is not None:
            lo, hi = self.interval
            if not (0 <= lo < hi or (lo == hi == 0)):
                raise ValueError(f"bad interval {self.interval}: need 0<=min<max")

    def satisfied(self, r_val, s_val, dist: Callable) -> bool:
        """Does the (tuple, sample) pair meet this constraint (Def. 3)?"""
        if r_val is None or s_val is None:
            return False
        if self.constant is not None:
            return r_val == s_val == self.constant
        lo, hi = self.interval
        return lo <= dist(r_val, s_val) <= hi


@dataclass(frozen=True)
class CDDRule:
    """A CDD rule ``X -> A_j`` with constraints phi[X] and interval A_j.I."""

    dependent: int                              # A_j
    constraints: tuple[Constraint, ...]         # phi[X]
    dep_interval: tuple[float, float]           # A_j.I
    level: int = 1                              # lattice level = |X|

    def __post_init__(self):
        if any(c.attr == self.dependent for c in self.constraints):
            raise ValueError("dependent attribute cannot be a determinant")
        lo, hi = self.dep_interval
        if not (0 <= lo <= hi):
            raise ValueError(f"bad dependent interval {self.dep_interval}")

    @property
    def determinants(self) -> tuple[int, ...]:
        return tuple(sorted({c.attr for c in self.constraints}))

    def satisfies(self, r: Sequence, s: Sequence, dist: Callable) -> bool:
        """All determinant constraints hold between tuple ``r`` and sample ``s``."""
        return all(c.satisfied(r[c.attr], s[c.attr], dist) for c in self.constraints)

    def candidate_values(
        self, s: Sequence, domain: Sequence, dist: Callable
    ) -> list:
        """Section 3: ``cand(s[A_j])`` — domain values within ``A_j.I`` of
        the sample's dependent value."""
        lo, hi = self.dep_interval
        sv = s[self.dependent]
        return [v for v in domain if lo <= dist(sv, v) <= hi]


def combine_rules(a: CDDRule, b: CDDRule) -> CDDRule:
    """Lattice combination (Section 5.1): conjoin constraints of two rules on
    the same dependent; dependent interval = intersection (the combined rule
    is at least as tight as either parent). Raises if dependents differ or the
    dependent intervals are disjoint."""
    if a.dependent != b.dependent:
        raise ValueError("can only combine rules with the same dependent")
    lo = max(a.dep_interval[0], b.dep_interval[0])
    hi = min(a.dep_interval[1], b.dep_interval[1])
    if lo > hi:
        raise ValueError("disjoint dependent intervals")
    return CDDRule(
        dependent=a.dependent,
        constraints=tuple(a.constraints) + tuple(b.constraints),
        dep_interval=(lo, hi),
        level=a.level + b.level,
    )


def impute_frequencies(
    r: Sequence,
    rules: Sequence[CDDRule],
    repository: Sequence[Sequence],
    domain: Sequence,
    dist: Callable,
) -> dict:
    """Sections 3 Eq. (3)-(4): frequency distribution of candidate imputed
    values for the (single) missing attribute of ``r``, aggregated over all
    applicable CDD rules and repository samples.

    Returns ``{value: frequency}``; normalize with :func:`normalize_freqs`.
    """
    freqs: dict = {}
    for rule in rules:
        for s in repository:
            if rule.satisfies(r, s, dist):
                for v in rule.candidate_values(s, domain, dist):
                    freqs[v] = freqs.get(v, 0) + 1
    return freqs


def normalize_freqs(freqs: Mapping) -> dict:
    """Eq. (3)/(4): ``v.p = F(v) / sum F(val)`` over the merged distribution."""
    total = sum(freqs.values())
    if total == 0:
        return {}
    return {v: f / total for v, f in freqs.items()}
