"""Shared fixtures: a small generated dataset and prepared TER context.

Session-scoped — the offline phase (pivot selection, rule detection, index
builds) runs once and is reused by every test that needs it.
"""
import pytest

from repro.config import TERConfig
from repro.streams.stream_gen import generate


@pytest.fixture(scope="session")
def small_cfg() -> TERConfig:
    return TERConfig(w=60, batch_size=20, xi=0.2, m=1, eta=0.3)


@pytest.fixture(scope="session")
def small_ds(small_cfg):
    return generate(
        "citations",
        scale=0.05,
        xi=small_cfg.xi,
        m=small_cfg.m,
        eta=small_cfg.eta,
        w=small_cfg.w,
        seed=11,
    )


@pytest.fixture(scope="session")
def prepared_ter(small_ds, small_cfg):
    from repro.ter.algorithm import prepare

    return prepare(None, small_ds, small_cfg, "ter")
