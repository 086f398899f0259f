"""Dataset generator tests (Table-4-shaped synthetic streams)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.similarity import sim_tuples
from repro.streams.stream_gen import (
    ATTR_COLS,
    D,
    dataset_specs,
    generate,
)

SCALE = 0.04


@pytest.fixture(scope="module")
def ds():
    return generate("citations", scale=SCALE, xi=0.2, m=1, eta=0.3, w=100, seed=7)


class TestSpecs:
    def test_five_datasets(self):
        specs = dataset_specs()
        assert set(specs) == {"citations", "anime", "bikes", "ebooks", "songs"}

    def test_table4_cardinalities_at_full_scale(self):
        """Table 4 source sizes (Songs scaled 1M -> 20k per DESIGN.md)."""
        specs = dataset_specs(1.0)
        assert specs["citations"].n_a == 2614
        assert specs["citations"].n_b == 2294
        assert specs["anime"].n_a == specs["anime"].n_b == 4000
        assert specs["bikes"].n_a == 4786 and specs["bikes"].n_b == 9003
        assert specs["ebooks"].n_a == 6500 and specs["ebooks"].n_b == 14112
        assert specs["songs"].n_a == specs["songs"].n_b == 20000

    def test_ebooks_has_long_attribute(self):
        s = dataset_specs()["ebooks"]
        assert s.tokens_per_attr[4][0] >= 15   # the "description" driver

    def test_truth_modes(self):
        specs = dataset_specs()
        assert specs["citations"].truth == "entity"
        assert specs["songs"].truth == "entity"
        assert specs["anime"].truth == "eq2"


class TestGenerate:
    def test_deterministic(self):
        a = generate("citations", scale=SCALE, seed=7)
        b = generate("citations", scale=SCALE, seed=7)
        pd.testing.assert_frame_equal(a.stream, b.stream)
        pd.testing.assert_frame_equal(a.repository, b.repository)

    @pytest.mark.parametrize("name, kw, want", [
        ("citations", dict(scale=SCALE, xi=0.2, m=1, eta=0.3, w=100, seed=7),
         "feea8a672b2cd8b9898f244e098a6c9f7181627c6c7fea1c3c07f29406e9ad3a"),
        ("ebooks", dict(scale=0.02, xi=0.5, m=3, eta=0.3, w=100, seed=3),
         "8c871d11c06170f6a1ff7ca9d7279f63a8ca7ced352cf374810a933172f23a9c"),
    ])
    def test_pinned_digest(self, name, kw, want):
        """The generated data stays bit-identical: a change to how tokens
        are drawn must reproduce the same draws."""
        ds = generate(name, **kw)
        h = hashlib.sha256()
        for df in (ds.stream, ds.complete, ds.repository):
            h.update(df.to_csv(index=False).encode())
        h.update(" ".join(ds.topics + ["|"] + ds.keywords).encode())
        assert h.hexdigest() == want

    def test_seed_changes_data(self):
        a = generate("citations", scale=SCALE, seed=7)
        b = generate("citations", scale=SCALE, seed=8)
        assert not a.stream[ATTR_COLS].equals(b.stream[ATTR_COLS])

    def test_sizes(self, ds):
        spec = dataset_specs(SCALE)["citations"]
        assert (ds.stream["stream_id"] == 0).sum() == spec.n_a
        assert (ds.stream["stream_id"] == 1).sum() == spec.n_b

    def test_missing_rate(self, ds):
        frac = ds.stream[ATTR_COLS].isna().any(axis=1).mean()
        assert frac == pytest.approx(0.2, abs=0.02)

    def test_m_missing_attrs(self):
        d2 = generate("citations", scale=SCALE, xi=0.3, m=2, seed=7)
        n_miss = d2.stream[ATTR_COLS].isna().sum(axis=1)
        assert set(n_miss.unique()) <= {0, 2}

    def test_complete_shadow_has_no_nulls(self, ds):
        assert not ds.complete[ATTR_COLS].isna().any().any()

    def test_stream_and_complete_align(self, ds):
        pd.testing.assert_series_equal(ds.stream["rid"], ds.complete["rid"])
        mask = ds.stream["a0"].notna()
        assert (ds.stream.loc[mask, "a0"] == ds.complete.loc[mask, "a0"]).all()

    def test_repository_size_and_completeness(self, ds):
        assert len(ds.repository) == pytest.approx(0.3 * len(ds.stream), rel=0.05)
        assert not ds.repository[ATTR_COLS].isna().any().any()

    def test_ts_is_arrival_order(self, ds):
        assert (ds.stream["ts"].to_numpy() == np.arange(len(ds.stream))).all()

    def test_topics_planted(self, ds):
        joined = " ".join(ds.complete["a0"])
        assert any(t in joined for t in ds.topics)
        assert set(ds.keywords) <= set(ds.topics)

    def test_matches_are_similar(self, ds):
        """Planted duplicate pairs exceed the default gamma = 2.5 mostly;
        non-matches stay far below — the generator separates the classes."""
        comp = ds.complete
        a = comp[comp["stream_id"] == 0].set_index("entity_id")
        b = comp[comp["stream_id"] == 1]
        sims_match, sims_non = [], []
        rng = np.random.default_rng(0)
        for row in b.itertuples(index=False):
            if row.entity_id in a.index:
                other = a.loc[row.entity_id]
                if isinstance(other, pd.DataFrame):
                    other = other.iloc[0]
                sims_match.append(
                    sim_tuples(
                        [getattr(row, c) for c in ATTR_COLS],
                        [other[c] for c in ATTR_COLS],
                    )
                )
            rnd = a.iloc[int(rng.integers(0, len(a)))]
            if rnd.name != row.entity_id:
                sims_non.append(
                    sim_tuples(
                        [getattr(row, c) for c in ATTR_COLS],
                        [rnd[c] for c in ATTR_COLS],
                    )
                )
        assert np.mean(np.array(sims_match) > 2.5) > 0.85
        assert np.mean(np.array(sims_non) > 2.5) < 0.02

    def test_match_arrives_within_window(self, ds):
        """A duplicate's two sides arrive within ~w arrivals of each other."""
        comp = ds.complete
        a = comp[comp["stream_id"] == 0].drop_duplicates("entity_id").set_index("entity_id")
        b = comp[comp["stream_id"] == 1]
        gaps = [
            abs(int(row.ts) - int(a.loc[row.entity_id, "ts"]))
            for row in b.itertuples(index=False)
            if row.entity_id in a.index
        ]
        assert np.median(gaps) < 2 * 100   # w=100 at generation time


class TestEbooksTokenSizes:
    def test_long_attribute_generated(self):
        ds = generate("ebooks", scale=0.02, seed=7)
        sizes = ds.complete["a4"].str.split().map(len)
        assert sizes.median() >= 12
