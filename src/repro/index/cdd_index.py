"""CDD-index ``I_j`` over detected CDD rules (paper §5.1, Figure 2).

Rule counts are tens per dependent attribute, so the lattice + aR-tree
structure is realized as flat rule rows on the driver, grouped by dependent
attribute: the imputation probe looks up the rules of the missing attribute
and then checks each rule's determinant constraints exactly.

Rules with up to two determinant constraints (lattice levels 1-2) are encoded
flat: ``(rule_id, dep, x1, lo1, hi1, x2, lo2, hi2, dep_lo, dep_hi)`` with the
second constraint ``None`` for level-1 rules.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.cdd import CDDRule


class RuleRow(NamedTuple):
    """One rule: determinant constraints ``x1`` (and ``x2``) and the
    dependent interval ``[dep_lo, dep_hi]``."""

    rule_id: int
    dep: int
    x1: int
    lo1: float
    hi1: float
    x2: int | None
    lo2: float | None
    hi2: float | None
    dep_lo: float
    dep_hi: float


@dataclass
class CDDIndex:
    """Rule rows grouped by dependent attribute."""

    by_dep: dict[int, list[RuleRow]]

    @property
    def n_rules(self) -> int:
        return sum(len(rs) for rs in self.by_dep.values())


def rules_to_rows(rules: dict[int, list[CDDRule]]) -> list[RuleRow]:
    rows = []
    rid = 0
    for dep, rs in sorted(rules.items()):
        for r in rs:
            cs = sorted(r.constraints, key=lambda c: c.attr)
            if not (1 <= len(cs) <= 2):
                raise ValueError("pipeline encodes lattice levels 1-2 only")
            if any(c.interval is None for c in cs):
                raise ValueError("pipeline rules must use interval constraints")
            c1 = cs[0]
            c2 = cs[1] if len(cs) == 2 else None
            rows.append(
                RuleRow(
                    rid,
                    dep,
                    c1.attr,
                    float(c1.interval[0]),
                    float(c1.interval[1]),
                    c2.attr if c2 else None,
                    float(c2.interval[0]) if c2 else None,
                    float(c2.interval[1]) if c2 else None,
                    float(r.dep_interval[0]),
                    float(r.dep_interval[1]),
                )
            )
            rid += 1
    return rows


def build_cdd_index(rules: dict[int, list[CDDRule]]) -> CDDIndex:
    """Build the CDD-index (offline phase)."""
    by_dep: dict[int, list[RuleRow]] = {}
    for row in rules_to_rows(rules):
        by_dep.setdefault(row.dep, []).append(row)
    return CDDIndex(by_dep)
