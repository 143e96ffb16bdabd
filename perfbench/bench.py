"""One benchmark run: set-up, a single-client closed loop of queries,
checks against the oracle, and the metrics.

The loop sends each query only after the previous one returned. It runs
whole passes over the same query list until ``seconds`` have elapsed and
the workload's ``min_passes`` are done, so every query is sent equally
often. Simulated-clock and byte metrics come from the first pass, which
makes them a function of the seed alone.
A traced run sends every query twice, untraced and traced, in alternating
order, so both timings see the same moment of a noisy machine: per-layer
metrics come from the traced executions, and the two medians give the
tracing overhead.
"""
from __future__ import annotations

import gc
import platform
import resource
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import session
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.oracle import Oracle, check_query
from perfbench.tracing import COUNTS, END, NAME, QUERY, START, Tracer
from perfbench.workloads import Workload

JOB_GROUP = "perfbench-build"
#: Airphant's bound: the single-round superpost batch plus one document batch.
AIRPHANT_MAX_BATCHES = 2
#: Mixed into the run seed for the query sampler.
SAMPLER_STREAM = 0x51E7
#: query_wall_ms_p99 takes each query's fastest of its executions in the
#: first BEST_OF passes, so that the tail is set by what the slow queries
#: cost, not by the moments at which the shared host ran them slowly.
BEST_OF = 2


@dataclass
class Pass:
    """Per-query observations of one pass over the query list: wall times
    and QueryStats of the completed untraced and traced executions."""

    wall_ns: list[int] = field(default_factory=list)
    query_ids: list[int] = field(default_factory=list)  # index of each wall_ns query
    stats: list = field(default_factory=list)
    traced_wall_ns: list[int] = field(default_factory=list)
    traced_stats: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        work: Path, out: Path, since_start) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record with settings)."""
    from repro.core.searcher import Query

    settings = session.configure(root / "src", work)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        phase = tracer.span if tracer else lambda _name: nullcontext()
        with phase("bench.spark"):
            spark = session.start()
        try:
            settings.update(python=platform.python_version(), spark=spark.version)
            engine, corpus_name, jobs = _set_up(spark, w, seed, phase, work, tracer)
            setup_s = since_start()
        finally:
            # The Searcher needs no Spark: stopping the JVM here keeps its
            # background threads off the cores while queries are timed.
            session.stop(spark)
    finally:
        if tracer:
            tracer.uninstall()

    # -- oracle and queries, computed apart from the program ---------------
    oracle = Oracle.from_dir(engine.store.root, corpus_name)
    problems = []
    if w.airphant:
        h = engine.searcher.header
        if (h.n_docs, h.n_terms) != (oracle.n_docs, oracle.n_terms):
            problems.append(
                f"header n_docs, n_terms = {h.n_docs}, {h.n_terms}; "
                f"oracle {oracle.n_docs}, {oracle.n_terms}"
            )
    queries = w.sampler(oracle, np.random.default_rng([seed, SAMPLER_STREAM]))
    sent = [c[0][0] if len(c) == 1 and len(c[0]) == 1 else Query(c) for c in queries]

    # -- closed loop --------------------------------------------------------
    # Freeze what exists now (Spark's and the oracle's objects), so the
    # program's garbage collections inside the timed loop do not scan the
    # benchmark's own data.
    gc.collect()
    gc.freeze()
    passes: list[Pass] = []
    min_passes = 1 if tracer else w.min_passes
    start = time.perf_counter()
    while True:
        passes.append(_one_pass(engine, w, oracle, queries, sent, tracer, problems))
        if len(passes) >= min_passes and time.perf_counter() - start >= seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    index_bytes = engine.index_bytes()
    if tracer is None:
        values = _end_to_end(passes, setup_s, index_bytes)
        units = END_TO_END
    else:
        values = _per_layer(tracer, passes, jobs, index_bytes, oracle.corpus_bytes)
        units = PER_LAYER
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{w.name}-s{seed}.jsonl.gz")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": tracer is not None,
        "passes": len(passes), "queries_per_pass": len(queries),
        "corpus": {"generator": w.corpus, "n_docs": oracle.n_docs, "n_terms": oracle.n_terms,
                   "bytes": oracle.corpus_bytes},
        "engine": w.engine, "k": w.k, "problems": problems[:20], "settings": settings,
        "result": result,
    }
    return result, record


def _set_up(spark, w: Workload, seed: int, phase, work: Path, tracer):
    """Corpus, profile, build and open: everything until the first query
    can be sent. Returns the open engine, the corpus name and, when traced,
    the Spark jobs the build started."""
    from repro import harness
    from repro.cloud.blobstore import BlobStore
    from repro.corpora import generators

    store = BlobStore(work / "store")
    with phase("bench.corpus"):
        corpus = getattr(generators, w.corpus)(spark, store, n_docs=w.n_docs, seed=seed)
        corpus.df.cache().count()
    config = None
    if w.airphant:
        config = harness.default_config(harness.quick_profile(corpus.df))
    engine = harness.make_engine(w.engine, spark, store, config=config, jitter_seed=seed)
    sc = spark.sparkContext
    sc.setJobGroup(JOB_GROUP, "index build")
    with phase("bench.build"):
        engine.build(corpus.df, f"{corpus.name}--{w.engine}")
    sc.setLocalProperty("spark.jobGroup.id", None)
    engine.open()
    jobs = _build_jobs(sc) if tracer else None
    return engine, corpus.name, jobs


def _one_pass(engine, w, oracle, queries, sent, tracer, problems) -> Pass:
    """One pass over the queries; with a tracer, each query runs untraced
    and traced, the order alternating from one query to the next."""
    p = Pass()
    for i, (clauses, q) in enumerate(zip(queries, sent)):
        if tracer is None:
            modes = (None,)
        else:
            modes = (None, tracer) if i % 2 else (tracer, None)
        for t in modes:
            _one_query(engine, w, oracle, i, clauses, q, t, p, problems)
    return p


def _one_query(engine, w, oracle, i, clauses, q, tracer, p: Pass, problems) -> None:
    p.attempted += 1
    if tracer:
        tracer.queries += 1
        tracer.query_id = tracer.queries
        tracer.install()
    try:
        with tracer.span("bench.query") if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            try:
                results, stats = engine.search(q, k=w.k)
            except Exception:
                p.failed += 1
                problems.append(f"query {clauses} raised:\n{traceback.format_exc()}")
                return
            dt = time.perf_counter_ns() - t0
    finally:
        if tracer:
            tracer.uninstall()
            tracer.query_id = None
    got = [(r.blob, r.posting.offset, r.posting.length, r.text) for r in results]
    problem = check_query(
        oracle, clauses, w.k, got,
        batches=engine.client.ledger.batches,
        max_batches=AIRPHANT_MAX_BATCHES if w.airphant else None,
        first_k=not w.airphant,
    )
    if problem:
        p.failed += 1
        problems.append(f"query {clauses}: {problem}")
        return
    if tracer:
        p.traced_wall_ns.append(dt)
        p.traced_stats.append(stats)
    else:
        p.wall_ns.append(dt)
        p.query_ids.append(i)
        p.stats.append(stats)


def _end_to_end(passes: list[Pass], setup_s, index_bytes) -> dict:
    wall = np.concatenate([p.wall_ns for p in passes]) / 1e6
    best: dict[int, int] = {}
    for p in passes[:BEST_OF]:
        for i, ns in zip(p.query_ids, p.wall_ns):
            best[i] = min(ns, best.get(i, ns))
    first = passes[0]
    sim = [s.total_ms for s in first.stats]
    return {
        "setup_s": setup_s,
        "query_wall_ms_p50": np.percentile(wall, 50),
        "query_wall_ms_p99": np.percentile(list(best.values()), 99) / 1e6,
        "queries_per_s": len(wall) / (wall.sum() / 1e3),
        "query_sim_ms_p50": np.percentile(sim, 50),
        "query_sim_ms_p99": np.percentile(sim, 99),
        "bytes_per_query": np.mean([s.bytes_fetched for s in first.stats]),
        "requests_per_query": np.mean([s.round_trips for s in first.stats]),
        "index_bytes": index_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _build_jobs(sc) -> int:
    """Spark jobs started inside the build's job group. Job events reach
    the status tracker asynchronously, so wait until the count settles."""
    tracker = sc.statusTracker()
    seen = -1
    for _ in range(20):
        n = len(tracker.getJobIdsForGroup(JOB_GROUP))
        if n == seen:
            return n
        seen = n
        time.sleep(0.25)
    return seen


def _per_layer(tracer: Tracer, passes: list[Pass], jobs: int, index_bytes: int,
               corpus_bytes: int) -> dict:
    spans = tracer.spans
    self_ns = tracer.self_ns()
    build = next(s for s in spans if s[NAME] == "bench.build")
    q_ns, q_self, q_calls, q_counts = defaultdict(int), defaultdict(int), Counter(), Counter()
    o_ns, o_calls, o_counts = defaultdict(int), Counter(), Counter()
    put_calls = put_bytes = put_ns = 0
    for s, own in zip(spans, self_ns):
        name, dur = s[NAME], s[END] - s[START]
        if s[QUERY] is not None:
            q_ns[name] += dur
            q_self[name] += own
            q_calls[name] += 1
            for k, v in (s[COUNTS] or {}).items():
                q_counts[f"{name}.{k}"] += v
            continue
        o_ns[name] += dur
        o_calls[name] += 1
        for k, v in (s[COUNTS] or {}).items():
            o_counts[f"{name}.{k}"] += v
        if name == "blobstore.put" and build[START] <= s[START] and s[END] <= build[END]:
            put_calls += 1
            put_bytes += s[COUNTS]["bytes"]
            put_ns += dur

    stats = [st for p in passes for st in p.traced_stats]
    n = len(stats)

    def per_query_ms(d, name):
        return d[name] / n / 1e6

    def per_query(d, name):
        return d[name] / n

    fetched = sum(st.n_fetched for st in stats)
    candidates = sum(st.n_candidates for st in stats)
    traced_p50 = np.percentile(np.concatenate([p.traced_wall_ns for p in passes]) / 1e6, 50)
    untraced_p50 = np.percentile(np.concatenate([p.wall_ns for p in passes]) / 1e6, 50)
    return {
        "client.fetch_batch.self_ms": per_query_ms(q_self, "client.fetch_batch"),
        "client.fetch_batch.calls": per_query(q_calls, "client.fetch_batch"),
        "client.fetch.self_ms": per_query_ms(q_self, "client.fetch"),
        "client.fetch.calls": per_query(q_calls, "client.fetch"),
        "blobstore.get_range.ms": per_query_ms(q_ns, "blobstore.get_range"),
        "blobstore.get_range.calls": per_query(q_calls, "blobstore.get_range"),
        "latency.request_cost.ms": per_query_ms(q_ns, "latency.request_cost"),
        "sim.wait_ms": np.mean([st.wait_ms for st in stats]),
        "sim.download_ms": np.mean([st.download_ms for st in stats]),
        "searcher.lookup.self_ms": per_query_ms(q_self, "searcher.lookup"),
        "mht.lookup.ms": per_query_ms(q_ns, "mht.lookup"),
        "postings.decode.ms": per_query_ms(q_ns, "postings.decode"),
        "postings.decode.postings": per_query(q_counts, "postings.decode.postings"),
        "postings.decode.bytes": per_query(q_counts, "postings.decode.bytes"),
        "postings.intersect.ms": per_query_ms(q_ns, "postings.intersect"),
        "postings.intersect.in": per_query(q_counts, "postings.intersect.in"),
        "postings.intersect.out": per_query(q_counts, "postings.intersect.out"),
        "postings.union.ms": per_query_ms(q_ns, "postings.union"),
        "searcher.filter.ms": per_query_ms(q_ns, "searcher.filter"),
        "searcher.candidates": candidates / n,
        "searcher.fetched": fetched / n,
        "searcher.results": sum(st.n_results for st in stats) / n,
        "searcher.precision": sum(st.n_results for st in stats) / fetched if fetched else 0.0,
        "topk.fetch_ratio": fetched / candidates if candidates else 0.0,
        "skiplist.find.ms": per_query_ms(q_ns, "skiplist.find"),
        "skiplist.nodes": per_query(q_calls, "skiplist.node"),
        "searcher.open.ms": o_ns["searcher.open"] / 1e6,
        "superpost.decode_header.ms": o_ns["superpost.decode_header"] / 1e6,
        "searcher.header_bytes": o_counts["superpost.decode_header.bytes"],
        "harness.quick_profile.s": o_ns["harness.quick_profile"] / 1e9,
        "bench.build.s": o_ns["bench.build"] / 1e9,
        "builder.build.s": o_ns["builder.build"] / 1e9,
        "builder.profile_corpus.s": o_ns["builder.profile_corpus"] / 1e9,
        "builder.optimize.s": o_ns["builder.optimize"] / 1e9,
        "builder.encode_header.s": o_ns["builder.encode_header"] / 1e9,
        "builder.spark_jobs": jobs,
        "builder.superposts": o_calls["builder.superpost"],
        "blobstore.put.calls": put_calls,
        "blobstore.put.bytes": put_bytes,
        "blobstore.put.s": put_ns / 1e9,
        "builder.index_bytes_per_corpus_byte": index_bytes / corpus_bytes,
        "baselines.exact_postings_index.s": o_ns["baselines.exact_postings_index"] / 1e9,
        "skiplist.build.s": o_ns["skiplist.build"] / 1e9,
        "trace.query_wall_ms_p50": traced_p50,
        "trace.untraced_query_wall_ms_p50": untraced_p50,
        "trace.overhead": traced_p50 / untraced_p50 - 1.0,
    }
