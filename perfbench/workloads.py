"""The benchmark's workloads: corpus, engine, query sampler and k.

Every input is a function of the run's seed: the corpus generator's seed
and the query sampler's generator both derive from it. Queries are
sampled from the oracle's vocabulary (the raw bytes), never from the
program's own parse of the corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench.oracle import Clauses, Oracle

#: Queries in one pass of the DNF workload. A run repeats whole passes,
#: so every query of a pass is sent equally often; 1000 queries put ten
#: beyond the p99.
PASS_QUERIES = 1000
#: One query in ABSENT_EVERY of a vocabulary pass names a word no
#: document holds.
ABSENT_EVERY = 50


def _absent_word(oracle: Oracle, rng: np.random.Generator) -> str:
    word = f"absent_{int(rng.integers(1 << 40)):x}"
    if word in oracle.index:
        raise RuntimeError(f"sampled absent word {word!r} occurs in the corpus")
    return word


def vocabulary_pass(oracle: Oracle, rng: np.random.Generator) -> list[Clauses]:
    """Single-word queries under the uniform prior over the vocabulary
    (§IV-B): every word once, in a seeded order, so a pass carries no
    sampling noise in its mix of rare and frequent words. After every
    ABSENT_EVERY - 1 words comes one word absent from the corpus."""
    vocab = oracle.vocabulary()
    queries = []
    for i in rng.permutation(len(vocab)):
        if len(queries) % ABSENT_EVERY == ABSENT_EVERY - 1:
            queries.append([[_absent_word(oracle, rng)]])
        queries.append([[vocab[i]]])
    return queries


def dnf_pairs(oracle: Oracle, rng: np.random.Generator) -> list[Clauses]:
    """PASS_QUERIES queries alternating ``a b OR c`` and ``a OR b``. The AND
    pair is two distinct words of one uniformly sampled document, so every
    conjunction has a match. The other words walk seeded permutations of
    the vocabulary, so each word is drawn equally often (the uniform prior)
    and the pass's mix of rare and frequent words barely varies by seed."""
    vocab = oracle.vocabulary()
    cycles = PASS_QUERIES * 3 // 2 // len(vocab) + 1
    uniform = iter(vocab[i] for _ in range(cycles) for i in rng.permutation(len(vocab)))
    queries = []
    for i in range(PASS_QUERIES):
        if i % 2 == 0:
            words = oracle.doc_words(int(rng.integers(oracle.n_docs)))
            a, b = (words[j] for j in rng.choice(len(words), 2, replace=False))
            queries.append([[a, b], [next(uniform)]])
        else:
            queries.append([[next(uniform)], [next(uniform)]])
    return queries


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # a repro.corpora.generators function
    n_docs: int
    engine: str  # a key of repro.baselines.engines.ENGINE_CLASSES
    k: int | None  # None: full results
    sampler: Callable[[Oracle, np.random.Generator], list[Clauses]]
    #: Whole passes an untraced run makes at least; two give every query
    #: the executions ``query_wall_ms_p99`` takes the best of (``bench.BEST_OF``).
    min_passes: int = 1

    @property
    def airphant(self) -> bool:
        return self.engine == "airphant"


WORKLOADS = {
    w.name: w
    for w in [
        # The paper's main log corpus: superposts merge template words with
        # block ids; frequent words fetch and filter hundreds of documents.
        # 2,000 documents give ~890 terms, so a pass sends ~910 queries and
        # the run's two passes ~1,820.
        Workload("hdfs-search", "hdfs_like", 2_000, "airphant", None, vocabulary_pass, 2),
        # Few terms, long postings (Table II's extreme sigma_X): decode,
        # intersect and union dominate. Full results: top-K (Eq 6) falls
        # short of k on this corpus for some seeds, so it is left out.
        # A pass of 1,000 queries already takes longer than a run's
        # seconds, so one pass is all a run affords.
        Workload("windows-dnf", "windows_like", 1_000, "airphant", None, dnf_pairs),
        # ~12 dependent single reads per query through CloudClient.fetch.
        Workload("hdfs-lucene", "hdfs_like", 2_000, "lucene", 10, vocabulary_pass, 2),
    ]
}
