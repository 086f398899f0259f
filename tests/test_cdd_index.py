"""CDD-index encoding tests (flat rule table)."""
import pytest

from repro.core.cdd import CDDRule, Constraint
from repro.index.cdd_index import build_cdd_index, rules_to_rows


def _rules():
    return {
        1: [
            CDDRule(1, (Constraint(0, interval=(0.0, 0.3)),), (0.0, 0.2)),
            CDDRule(
                1,
                (
                    Constraint(0, interval=(0.1, 0.4)),
                    Constraint(2, interval=(0.0, 0.2)),
                ),
                (0.05, 0.25),
                level=2,
            ),
        ],
        2: [CDDRule(2, (Constraint(3, interval=(0.0, 0.5)),), (0.0, 0.45))],
    }


class TestRowsEncoding:
    def test_flat_rows(self):
        rows = rules_to_rows(_rules())
        assert len(rows) == 3
        rid, dep, x1, lo1, hi1, x2, lo2, hi2, dlo, dhi = rows[1]
        assert (dep, x1, x2) == (1, 0, 2)
        assert (lo1, hi1) == (0.1, 0.4)
        assert (lo2, hi2) == (0.0, 0.2)
        assert (dlo, dhi) == (0.05, 0.25)

    def test_single_constraint_has_null_x2(self):
        rows = rules_to_rows(_rules())
        assert rows[0][5] is None and rows[0][6] is None

    def test_constant_constraint_rejected(self):
        bad = {1: [CDDRule(1, (Constraint(0, constant="v"),), (0.0, 0.2))]}
        with pytest.raises(ValueError):
            rules_to_rows(bad)

    def test_level3_rejected(self):
        bad = {
            4: [
                CDDRule(
                    4,
                    (
                        Constraint(0, interval=(0.0, 0.1)),
                        Constraint(1, interval=(0.0, 0.1)),
                        Constraint(2, interval=(0.0, 0.1)),
                    ),
                    (0.0, 0.2),
                )
            ]
        }
        with pytest.raises(ValueError):
            rules_to_rows(bad)


class TestBuildIndex:
    def test_build(self):
        idx = build_cdd_index(_rules())
        assert idx.n_rules == 3
        assert sorted(idx.by_dep) == [1, 2]
        assert [r.rule_id for r in idx.by_dep[1]] == [0, 1]
        assert all(r.dep == dep for dep, rs in idx.by_dep.items() for r in rs)

    def test_empty_rules(self):
        idx = build_cdd_index({0: []})
        assert idx.n_rules == 0
        assert idx.by_dep.get(0, []) == []
