"""BENCHMARK.json, the metric tables and the workloads agree, and the
inputs are a function of the seed."""
import json

import numpy as np

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.oracle import Oracle
from perfbench.tracing import TARGETS, Tracer
from perfbench.workloads import ABSENT_EVERY, PASS_QUERIES, WORKLOADS, dnf_pairs, vocabulary_pass

from .conftest import ROOT


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _oracle():
    g = np.random.default_rng(0)
    lines = [" ".join(f"w{j}" for j in g.integers(0, 3000, 6)) for _ in range(2000)]
    return Oracle({"c/corpus-00000.txt": ("\n".join(lines) + "\n").encode()})


def test_samplers_depend_only_on_seed():
    oracle = _oracle()
    for sampler in (vocabulary_pass, dnf_pairs):
        a = sampler(oracle, np.random.default_rng([7, 1]))
        assert a == sampler(oracle, np.random.default_rng([7, 1]))
        assert a != sampler(oracle, np.random.default_rng([8, 1]))
    assert len(dnf_pairs(oracle, np.random.default_rng(0))) == PASS_QUERIES


def test_vocabulary_pass_covers_vocabulary_once():
    oracle = _oracle()
    words = [q[0][0] for q in vocabulary_pass(oracle, np.random.default_rng(3))]
    absent = [w for w in words if w not in oracle.index]
    assert sorted(set(words) - set(absent)) == oracle.vocabulary()
    assert len(set(words)) == len(words) == oracle.n_terms + len(absent)
    assert len(absent) == len(words) // ABSENT_EVERY


def test_dnf_pairs_conjunctions_match():
    oracle = _oracle()
    for clauses in dnf_pairs(oracle, np.random.default_rng(4))[::2]:
        assert oracle.matches([clauses[0]])


def test_tracer_wraps_and_restores():
    from repro.core import searcher
    from repro.core.postings import Posting

    original = searcher.intersect
    tracer = Tracer()
    tracer.install()
    try:
        assert searcher.intersect is not original
        tracer.query_id = 5
        with tracer.span("outer"):
            out = searcher.intersect([[Posting(0, 1, 2), Posting(0, 4, 2)], [Posting(0, 4, 2)]])
    finally:
        tracer.uninstall()
    assert searcher.intersect is original
    assert out == [Posting(0, 4, 2)]
    outer, inner = tracer.spans
    assert inner[0] == "postings.intersect" and inner[3] == 0 and inner[4] == 5
    assert inner[5] == {"in": 3, "out": 1}
    own = tracer.self_ns()
    assert own[0] == (outer[2] - outer[1]) - (inner[2] - inner[1])
    assert len({(m, a) for _, m, a, _ in TARGETS}) == len(TARGETS)
