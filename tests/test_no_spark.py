"""The program runs without Spark: importing every ``repro`` module and
running every method, the truth, the pair profile, both imputation paths and
the baselines' exact ER never imports ``pyspark``.

The check runs in a fresh interpreter, because the test session itself
imports ``pyspark`` for the Spark-reference tests.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import pkgutil
import sys

import repro

for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(mod.name)

from repro.bench import harness
from repro.config import TERConfig
from repro.core.cdd_detect import sample_pair_profile
from repro.core.imputation import impute_batch
from repro.ter.algorithm import METHODS
from repro.ter.baselines import exact_er_spark
from repro.ter.truth import truth_pairs

cfg = TERConfig(w=60, batch_size=20, xi=0.2, m=1, eta=0.3, seed=11)
for method in METHODS:
    assert harness.run_method("citations", cfg, method, scale=0.05).n_arrivals > 0
ds = harness.get_dataset("citations", cfg, scale=0.05)
assert truth_pairs(None, ds, cfg)
assert len(sample_pair_profile(None, ds.repository, seed=cfg.seed)) > 0
prep = harness.get_context("citations", cfg, scale=0.05).prep(cfg, "ter")
for indexed in (True, False):
    tuples, stats = impute_batch(ds.stream.head(100), prep.dr, prep.cddx,
                                 prep.pivots, keywords=prep.keywords,
                                 indexed=indexed)
    assert stats.n_samples > 0
assert exact_er_spark(tuples, tuples, gamma=cfg.gamma, alpha=0.0)
assert "pyspark" not in sys.modules, "pyspark was imported"
"""


def test_program_never_imports_pyspark():
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", GUARD], env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
