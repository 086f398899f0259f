"""Bench-harness plumbing tests (table registry, caching, persistence)."""
import json

import pytest

from repro.bench import harness as H
from repro.config import TERConfig


class TestTableRegistry:
    def test_all_tables_registered(self):
        assert set(H.TABLES) == {"T4"} | {f"P{i}" for i in range(1, 14)}

    def test_t4_rows(self):
        rows = H.table_t4(scale=0.03)
        assert len(rows) == 5
        for r in rows:
            assert r["src_a"] > 0 and r["src_b"] > 0
            assert r["planted_matches"] > 0

    def test_t4_table4_shape_at_full_scale(self):
        # Source sizes are spec-driven; verify without generating (specs only)
        from repro.streams.stream_gen import dataset_specs

        specs = dataset_specs(1.0)
        assert specs["citations"].n_a == 2614


class TestCaches:
    def test_dataset_cache(self):
        cfg = TERConfig()
        a = H.get_dataset("citations", cfg, scale=0.03)
        b = H.get_dataset("citations", cfg, scale=0.03)
        assert a is b

    def test_dataset_cache_respects_params(self):
        cfg = TERConfig()
        a = H.get_dataset("citations", cfg, scale=0.03)
        b = H.get_dataset("citations", cfg.with_(xi=0.4), scale=0.03)
        assert a is not b


class TestSaveRows:
    def test_save_and_replace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(H, "RESULTS_PATH", tmp_path / "measured.json")
        H.save_rows([{"table": "P1", "dataset": "x", "v": 1}])
        H.save_rows([{"table": "P2", "dataset": "y", "v": 2}])
        got = json.loads((tmp_path / "measured.json").read_text())
        assert len(got) == 2
        # re-running a table replaces its rows, not duplicates them
        H.save_rows([{"table": "P1", "dataset": "x", "v": 9}])
        got = json.loads((tmp_path / "measured.json").read_text())
        assert len(got) == 2
        assert [r for r in got if r["table"] == "P1"][0]["v"] == 9

    def test_print_rows_smoke(self, capsys):
        H.print_rows([{"a": 1, "b": "x"}])
        out = capsys.readouterr().out
        assert "a | b" in out and "1 | x" in out

    def test_print_empty(self, capsys):
        H.print_rows([])
        assert "(no rows)" in capsys.readouterr().out


class TestTableP4:
    def test_small_impute_time_is_not_rounded_away(self, monkeypatch):
        """A layer below 5e-6 s per arrival keeps a nonzero P4 cell."""
        res = H.RunResult(method="ter", t_select=0.04, t_impute=0.0004,
                          t_er=0.5, n_arrivals=400)
        monkeypatch.setattr(H, "run_method", lambda *a, **k: res)
        (row,) = H.table_p4(["citations"])
        assert row["impute"] == 1e-06
        assert row["cdd_select"] == 1e-04 and row["er"] == 0.00125


@pytest.fixture
def job():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "jobs" / "run_ter_ids.py"
    spec = importlib.util.spec_from_file_location("run_ter_ids", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


class TestRunTerIdsJob:
    def test_exits_when_no_batch_is_measured(self, job):
        """At scale 0.05 the citations stream never fills the default window
        (w=1000), so the job has nothing to report."""
        with pytest.raises(SystemExit) as exc:
            job.main(["--dataset", "citations", "--scale", "0.05"])
        assert "w=1000" in str(exc.value.code) and "--scale" in str(exc.value.code)

    def test_rejects_unknown_method(self, job, capsys):
        with pytest.raises(SystemExit) as exc:
            job.main(["--method", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_reports_partial_tail_batch(self, job, capsys):
        """At scale 0.5 the citations stream runs out 190 arrivals into the
        first measured step of 2 x 200."""
        job.main(["--dataset", "citations", "--scale", "0.5", "--batches", "1"])
        out = capsys.readouterr().out
        assert "arrivals=190" in out
        assert "partial: 190 of 400 arrivals" in out

    def test_full_batches_are_not_flagged(self, job, capsys, monkeypatch):
        res = H.RunResult(method="ter", n_arrivals=800)
        monkeypatch.setattr(job, "run_method", lambda *a, **k: res)
        job.main(["--batches", "2"])
        out = capsys.readouterr().out
        assert "arrivals=800" in out and "partial" not in out
