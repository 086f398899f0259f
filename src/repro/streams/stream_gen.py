"""Synthetic dirty-duplicate textual streams shaped like the paper's Table 4.

The paper evaluates on Citations (DBLP-ACM), Anime, Bikes, EBooks (Magellan)
and Songs (1M self-join). Those files are not available offline, so we
generate, deterministically per (dataset, seed):

- an *entity pool*: per entity, d=5 textual attribute values (token sets drawn
  from per-attribute Zipfian vocabularies). Attribute values are correlated
  through entity identity — which is exactly the dependence CDD imputation
  exploits (similar determinant attributes => same entity => similar
  dependent attribute);
- **source A** tuples (one per entity) and **source B** tuples (token-perturbed
  copies of matched entities — the planted groundtruth — plus unmatched
  entities), interleaved into two streams so that a match's two sides arrive
  within ~w/2 of each other;
- a fraction of entities carries a planted *topic keyword* (token
  ``topicNN``) — the query keyword set K is a subset of these;
- incompleteness: a ``xi`` fraction of stream tuples get ``m`` random
  attributes nulled (the complete pre-corruption value is kept separately for
  groundtruth / oracle use only);
- a complete repository R of ``eta * (|A|+|B|)`` tuples drawn as perturbed
  copies of a random subset of the entity pool (the paper's "historical
  stream data").

Per-dataset knobs reproduce the paper's observed drivers: EBooks has one
long-text attribute (>=5x token sizes -> most expensive checks); Songs is the
largest (scaled 1M -> 20k) with the largest repository.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

D = 5
ATTR_COLS = [f"a{k}" for k in range(D)]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape knobs for one synthetic dataset (Table 4 row)."""

    name: str
    n_a: int
    n_b: int
    match_rate: float          # fraction of B tuples that duplicate an A entity
    dups_mean: float           # mean B-duplicates per matched A entity (>=1)
    tokens_per_attr: tuple[tuple[int, int], ...]  # (lo, hi) per attribute
    vocab_per_attr: tuple[int, ...]
    # Duplicate dirtiness. Calibrated so planted matches land at sim ~2.9-3.4
    # (sum of 5 per-attribute Jaccards): comfortably above gamma=2.5 when
    # complete, but losing one attribute (unimputed or badly imputed) drops a
    # match below the threshold — imputation quality is what separates the
    # methods' F-scores, as in the paper's Fig. 5(a).
    perturb_drop: float = 0.14   # per-token drop prob in a duplicate
    perturb_repl: float = 0.09   # per-token replace prob in a duplicate
    topic_frac: float = 0.19     # fraction of entities carrying a topic token
    n_topics: int = 20
    truth: str = "entity"        # "entity" (actual GT) or "eq2" (paper's derived GT)
    zipf_alpha: float = 0.9      # mild skew: attributes stay discriminative


_SHORT = ((4, 8), (3, 6), (3, 5), (4, 7), (5, 9))
_EBOOK = ((4, 8), (3, 6), (3, 5), (4, 7), (20, 32))   # long "description" attr


def dataset_specs(scale: float = 1.0) -> dict[str, DatasetSpec]:
    """The five Table-4 datasets. ``scale`` < 1 shrinks cardinalities
    proportionally (unit tests use scale ~0.05)."""

    def sz(n: int) -> int:
        return max(40, int(n * scale))

    def vocab(n: int) -> tuple[int, ...]:
        v = max(150, int(200 + n * 0.5))
        return (v, v // 2, v // 2, v, v * 2)

    return {
        "citations": DatasetSpec(
            "citations", sz(2614), sz(2294), 0.97, 1.0, _SHORT,
            vocab(sz(2614)), truth="entity",
        ),
        "anime": DatasetSpec(
            "anime", sz(4000), sz(4000), 0.90, 2.7, _SHORT,
            vocab(sz(4000)), truth="eq2",
        ),
        "bikes": DatasetSpec(
            "bikes", sz(4786), sz(9003), 0.80, 1.9, _SHORT,
            vocab(sz(4786)), truth="eq2",
        ),
        "ebooks": DatasetSpec(
            "ebooks", sz(6500), sz(14112), 0.70, 1.7, _EBOOK,
            vocab(sz(6500)), truth="eq2",
        ),
        "songs": DatasetSpec(
            "songs", sz(20000), sz(20000), 0.95, 1.35, _SHORT,
            vocab(sz(20000)), truth="entity",
        ),
    }


@dataclass
class Dataset:
    """A generated dataset: streams, complete shadow, repository, topics."""

    spec: DatasetSpec
    stream: pd.DataFrame          # rid, stream_id, ts, entity_id, a0..a4 (with NaN)
    complete: pd.DataFrame        # same rows, pre-corruption (no NaN)
    repository: pd.DataFrame      # sid, a0..a4 (complete)
    topics: list[str]             # all planted topic tokens
    keywords: list[str]           # default query keyword set K (subset of topics)

    @property
    def truth_mode(self) -> str:
        return self.spec.truth


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """The CDF that ``rng.choice(n, p=zipf_weights)`` builds on every call,
    so that ``cdf.searchsorted(rng.random(size), side="right")`` is its draw."""
    w = 1.0 / np.arange(1, n + 1) ** alpha
    cdf = (w / w.sum()).cumsum()
    return cdf / cdf[-1]


def _make_entity_pool(spec: DatasetSpec, rng: np.random.Generator, n_entities: int,
                      topics: list[str]) -> list[list[str]]:
    """Per entity: d token-set strings; a topic_frac subset gets a topic token
    appended to every attribute that has room (topic presence is a property of
    the *entity*, so both sides of a match carry it)."""
    pool: list[list[str]] = []
    vocabs = [
        np.array([f"a{k}t{i}" for i in range(spec.vocab_per_attr[k])]) for k in range(D)
    ]
    cdfs = [_zipf_cdf(len(v), spec.zipf_alpha) for v in vocabs]
    topic_mask = rng.random(n_entities) < spec.topic_frac
    # Per-entity verbosity: real sources mix terse and verbose records, and
    # record length is consistent within a record. Both sides of a duplicate
    # share the entity's verbosity (match similarity unaffected), while
    # terse-vs-verbose non-match pairs get token-set sizes disparate enough
    # for Lemma 4.1 to prune — the paper's similarity-UB pruning regime.
    verbosity = rng.choice([0.5, 1.0, 1.9], size=n_entities, p=[0.3, 0.4, 0.3])
    for e in range(n_entities):
        attrs = []
        for k in range(D):
            lo, hi = spec.tokens_per_attr[k]
            n_tok = max(1, int(round(rng.integers(lo, hi + 1) * verbosity[e])))
            toks = list(dict.fromkeys(
                vocabs[k][cdfs[k].searchsorted(rng.random(n_tok), side="right")]
            ))
            attrs.append(toks)
        if topic_mask[e]:
            t = topics[int(rng.integers(0, len(topics)))]
            attrs[0] = attrs[0] + [t]
        pool.append([" ".join(a) for a in attrs])
    return pool


def _perturb(attrs: list[str], spec: DatasetSpec, rng: np.random.Generator,
             vocabs: list[list[str]]) -> list[str]:
    """Dirty-duplicate: per token, drop w.p. perturb_drop or replace w.p.
    perturb_repl; topic tokens are never dropped (topic is entity-level)."""
    out = []
    for k, v in enumerate(attrs):
        toks = v.split()
        kept = []
        for t in toks:
            if t.startswith("topic"):
                kept.append(t)
                continue
            u = rng.random()
            if u < spec.perturb_drop and len(toks) > 1:
                continue
            if u < spec.perturb_drop + spec.perturb_repl:
                kept.append(vocabs[k][int(rng.integers(0, len(vocabs[k])))])
            else:
                kept.append(t)
        if not kept:
            kept = toks[:1]
        out.append(" ".join(dict.fromkeys(kept)))
    return out


def generate(name: str, *, scale: float = 1.0, xi: float = 0.1, m: int = 1,
             eta: float = 0.3, w: int = 1000, n_keywords: int = 5,
             seed: int = 7) -> Dataset:
    """Generate one dataset with incompleteness parameters (xi, m), repository
    ratio eta, and window-aware arrival interleaving for window size w."""
    spec = dataset_specs(scale)[name]
    # zlib.crc32 is stable across processes (builtin str hash is salted).
    rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
    topics = [f"topic{i:02d}" for i in range(spec.n_topics)]
    vocabs = [
        [f"a{k}t{i}" for i in range(spec.vocab_per_attr[k])] for k in range(D)
    ]

    # --- entity pool: A entities + extra entities for unmatched B tuples ---
    n_match_b = int(spec.n_b * spec.match_rate)
    n_extra = spec.n_b - n_match_b
    n_entities = spec.n_a + n_extra
    pool = _make_entity_pool(spec, rng, n_entities, topics)

    # --- source A: one tuple per A entity (identity copy) ---
    a_rows = [(e, pool[e]) for e in range(spec.n_a)]
    # --- source B: matched dups (multi-dup via dups_mean) + unmatched ---
    n_matched_entities = max(1, int(round(n_match_b / spec.dups_mean)))
    matched_entities = rng.choice(spec.n_a, size=min(n_matched_entities, spec.n_a),
                                  replace=False)
    b_rows: list[tuple[int, list[str]]] = []
    i = 0
    while len(b_rows) < n_match_b:
        e = int(matched_entities[i % len(matched_entities)])
        b_rows.append((e, _perturb(pool[e], spec, rng, vocabs)))
        i += 1
    for j in range(n_extra):
        e = spec.n_a + j
        b_rows.append((e, _perturb(pool[e], spec, rng, vocabs)))
    rng.shuffle(b_rows)

    # --- interleave into two streams; a match's B side lands near its A side ---
    # A tuples arrive in entity order at ts = 2*i; B tuples are placed at the
    # A side's ts plus a small positive offset (< w) so co-window is likely.
    a_ts = {e: 2 * i for i, (e, _) in enumerate(a_rows)}
    recs = []
    for e, attrs in a_rows:
        recs.append((0, a_ts[e], e, attrs))
    horizon = 2 * len(a_rows) + 10
    for e, attrs in b_rows:
        base = a_ts.get(e)
        if base is None:
            ts = int(rng.integers(0, horizon))
        else:
            ts = base + 1 + int(rng.integers(0, max(2, w // 2)))
        recs.append((1, ts, e, attrs))
    recs.sort(key=lambda r: (r[1], r[0]))

    complete = pd.DataFrame(
        {
            "rid": np.arange(len(recs)),
            "stream_id": [r[0] for r in recs],
            "ts": np.arange(len(recs)),  # arrival order = timestamp (Def. 1)
            "entity_id": [r[2] for r in recs],
            **{c: [r[3][k] for r in recs] for k, c in enumerate(ATTR_COLS)},
        }
    )

    # --- incompleteness: xi fraction of tuples lose m random attributes ---
    stream = complete.copy()
    n_missing = int(len(stream) * xi)
    miss_rows = rng.choice(len(stream), size=n_missing, replace=False)
    for r in miss_rows:
        cols = rng.choice(D, size=min(m, D), replace=False)
        for k in cols:
            stream.loc[r, ATTR_COLS[k]] = None

    # --- repository R: eta * stream size of complete tuples. Each covered
    # entity contributes TWO perturbed copies (adjacent sids): real
    # repositories of historical stream data contain near-duplicate records,
    # and those within-R duplicate pairs are exactly the dependency signal
    # (similar determinants => similar dependent) that CDD/DD detection and
    # imputation need. Larger eta covers more entities => better imputation
    # (the Fig. 14 trend).
    n_repo = max(10, int(eta * len(stream)))
    n_ent_repo = max(5, n_repo // 2)
    repo_entities = rng.choice(
        n_entities, size=n_ent_repo, replace=n_ent_repo > n_entities
    )
    repo_rows: list[list[str]] = []
    repo_eids: list[int] = []
    for e in repo_entities:
        for _ in range(2):
            repo_rows.append(_perturb(pool[int(e)], spec, rng, vocabs))
            repo_eids.append(int(e))
            if len(repo_rows) == n_repo:
                break
        if len(repo_rows) == n_repo:
            break
    # entity_id is evaluation-only metadata (coverage analysis in tests);
    # the pipelines select only sid + attribute columns.
    repo = pd.DataFrame(
        {
            "sid": np.arange(len(repo_rows)),
            "entity_id": repo_eids,
            **{c: [r[k] for r in repo_rows] for k, c in enumerate(ATTR_COLS)},
        }
    )

    keywords = topics[:n_keywords]
    return Dataset(spec=spec, stream=stream, complete=complete, repository=repo,
                   topics=topics, keywords=keywords)
