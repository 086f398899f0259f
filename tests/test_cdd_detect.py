"""Rule detection tests (paper §2.2 + the three rule flavors)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.cdd import CDDRule
from repro.core.cdd_detect import (
    TAU_CDD,
    TAU_DD,
    detect_rules,
    sample_pair_profile,
    spark_hash_long,
)
from repro.streams.stream_gen import D
from tests.spark_reference import job_mark, spark_pair_profile


@pytest.fixture(scope="module")
def profile(small_ds):
    return sample_pair_profile(None, small_ds.repository, seed=3)


class TestPairProfile:
    def test_columns(self, profile):
        assert list(profile.columns) == [f"d{k}" for k in range(D)]

    def test_distances_in_unit_interval(self, profile):
        assert ((profile >= 0) & (profile <= 1)).all().all()

    def test_nontrivial_sample(self, profile):
        assert len(profile) > 100

    def test_correlation_exists(self, profile):
        """Same-entity repository pairs make attribute distances correlated —
        the signal CDD detection needs."""
        corr = profile["d0"].corr(profile["d1"])
        assert corr > 0.3


class TestDetectRules:
    @pytest.fixture(scope="class")
    def cdd_rules(self, small_ds, profile):
        return detect_rules(small_ds.repository, flavor="cdd", profile=profile)

    def test_every_dependent_covered(self, cdd_rules):
        assert set(cdd_rules) == set(range(D))
        assert all(len(rs) > 0 for rs in cdd_rules.values())

    def test_rules_well_formed(self, cdd_rules):
        for j, rs in cdd_rules.items():
            for r in rs:
                assert isinstance(r, CDDRule)
                assert r.dependent == j
                assert j not in r.determinants
                assert r.dep_interval[1] <= max(TAU_CDD, 1.0)

    def test_banded_rule_with_relaxed_min_on_banded_profile(self):
        """The paper's eps.min > 0 relaxation: on a profile with a clear
        band structure (dependent distance tracks determinant distance),
        _fit_single emits a band whose determinant interval starts above 0
        and whose dependent interval is tighter than the parent DD's."""
        import numpy as np
        from repro.core.cdd_detect import _fit_single

        rng = np.random.default_rng(0)
        n = 400
        dx = rng.uniform(0, 0.5, n)
        dj = np.clip(dx * 0.8 + rng.normal(0, 0.02, n), 0, 1)
        prof = pd.DataFrame({f"d{k}": rng.uniform(0.8, 1.0, n) for k in range(D)})
        prof["d0"] = dx
        prof["d1"] = dj
        rules = _fit_single(prof, 0, 1, tau=0.5, bands=True)
        assert rules, "no rules fit on a strongly dependent profile"
        banded = [
            r for r in rules for c in r.constraints if c.interval[0] > 0
        ]
        assert banded
        parent = rules[0]
        for r in banded:
            width = r.dep_interval[1] - r.dep_interval[0]
            assert width < parent.dep_interval[1] - parent.dep_interval[0]
            assert r.dep_interval[0] > 0   # two-sided band (min relaxed)

    def test_has_level2_lattice_rule(self, cdd_rules):
        assert any(r.level == 2 for rs in cdd_rules.values() for r in rs)

    def test_dd_flavor_is_looser_intervals_only(self, small_ds, profile):
        dd = detect_rules(small_ds.repository, flavor="dd", profile=profile)
        for rs in dd.values():
            for r in rs:
                assert r.level == 1
                for c in r.constraints:
                    assert c.interval is not None
                    assert c.interval[0] == 0.0   # DDs have no eps.min
                assert r.dep_interval[0] == 0.0

    def test_dd_dep_intervals_at_least_as_wide(self, small_ds, profile, cdd_rules):
        dd = detect_rules(small_ds.repository, flavor="dd", profile=profile)
        max_dd = max(r.dep_interval[1] for rs in dd.values() for r in rs)
        max_cdd = max(
            r.dep_interval[1] for rs in cdd_rules.values() for r in rs
        )
        assert max_dd >= max_cdd - 1e-9

    def test_er_flavor_exact_equality(self, small_ds, profile):
        er = detect_rules(small_ds.repository, flavor="er", profile=profile)
        for rs in er.values():
            assert len(rs) == D - 1
            for r in rs:
                for c in r.constraints:
                    assert c.interval == (0.0, 0.0)

    def test_deterministic(self, small_ds, profile):
        a = detect_rules(small_ds.repository, flavor="cdd", profile=profile)
        b = detect_rules(small_ds.repository, flavor="cdd", profile=profile)
        assert a == b


def _sorted_rows(profile: pd.DataFrame) -> pd.DataFrame:
    return profile.sort_values(list(profile.columns)).reset_index(drop=True)


class TestDriverProfileEqualsSpark:
    """The driver profile lists the pairs of the Spark join from the same
    blocks, so its rows and every rule table fit from it are the same."""

    def test_hash_matches_spark(self, spark):
        edge = [0, 1, -1, 2**31 - 1, 2**31, 2**32, 2**63 - 1, -(2**63)]
        rnd = np.random.default_rng(5).integers(-(2**63), 2**63 - 1, 1000, dtype=np.int64)
        x = np.array(edge + rnd.tolist(), dtype=np.int64)
        df = spark.createDataFrame(pd.DataFrame({"x": x}))
        want = [r[0] for r in df.select(F.hash("x")).collect()]
        got = spark_hash_long(x)
        assert got.dtype == np.int32
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_rows_equal_spark_query(self, spark, small_ds, seed):
        got = sample_pair_profile(None, small_ds.repository, seed=seed)
        want = spark_pair_profile(spark, small_ds.repository, seed=seed)
        assert list(got.dtypes) == list(want.dtypes)
        pd.testing.assert_frame_equal(_sorted_rows(got), _sorted_rows(want),
                                      check_exact=True)

    @pytest.fixture(scope="class")
    def spark_profile(self, spark, small_ds):
        return spark_pair_profile(spark, small_ds.repository, seed=3)

    @pytest.mark.parametrize("flavor", ["cdd", "dd", "er"])
    def test_rule_tables_equal(self, small_ds, profile, spark_profile, flavor):
        assert detect_rules(small_ds.repository, flavor=flavor,
                            profile=profile) == detect_rules(
            small_ds.repository, flavor=flavor, profile=spark_profile)

    def test_no_spark_jobs(self, spark, small_ds, small_cfg):
        from repro.ter.algorithm import prepare

        before = job_mark(spark)
        sample_pair_profile(None, small_ds.repository, seed=1)
        prepare(None, small_ds, small_cfg, "ter")
        assert job_mark(spark) == before
