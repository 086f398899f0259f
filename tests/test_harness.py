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


class TestRunTerIdsJob:
    def test_exits_when_no_batch_is_measured(self):
        """At scale 0.05 the citations stream never fills the default window
        (w=1000), so the job has nothing to report."""
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "jobs" / "run_ter_ids.py"
        spec = importlib.util.spec_from_file_location("run_ter_ids", path)
        job = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(job)
        with pytest.raises(SystemExit) as exc:
            job.main(["--dataset", "citations", "--scale", "0.05"])
        assert "w=1000" in str(exc.value.code) and "--scale" in str(exc.value.code)
