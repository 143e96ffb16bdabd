"""In-memory span tracer that wraps the program's public functions.

Tracing patches each target under the name its caller looks it up by
(``decode_postings`` is wrapped as ``repro.core.searcher.decode_postings``
because the searcher imports it by name), so nothing inside ``src/``
changes. Every call records a span ``[name, start_ns, end_ns, parent,
query_id, counts]``; a span's self time is its duration minus that of
its children (all calls run on the one benchmark thread, so children
never overlap). Spans are written out when the run ends.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _decode_counts(args, out):
    return {"postings": len(out), "bytes": len(args[0])}


def _intersect_counts(args, out):
    return {"in": sum(len(lst) for lst in args[0]), "out": len(out)}


def _header_counts(args, out):
    return {"bytes": len(args[0])}


def _put_counts(args, out):
    return {"bytes": len(args[2])}  # BlobStore.put(self, name, data)


#: (span name, module, attribute path, counts function or None).
TARGETS = [
    ("client.fetch_batch", "repro.cloud.client", "CloudClient.fetch_batch", None),
    ("client.fetch", "repro.cloud.client", "CloudClient.fetch", None),
    ("blobstore.get_range", "repro.cloud.blobstore", "BlobStore.get_range", None),
    ("blobstore.put", "repro.cloud.blobstore", "BlobStore.put", _put_counts),
    ("latency.request_cost", "repro.cloud.latency", "LatencyModel.request_cost", None),
    ("searcher.open", "repro.core.searcher", "AirphantSearcher.open", None),
    ("searcher.lookup", "repro.core.searcher", "AirphantSearcher.lookup", None),
    ("mht.lookup", "repro.core.mht", "MultilayerHashTable.lookup", None),
    ("postings.decode", "repro.core.searcher", "decode_postings", _decode_counts),
    ("postings.decode", "repro.baselines.engines", "decode_postings", _decode_counts),
    ("postings.intersect", "repro.core.searcher", "intersect", _intersect_counts),
    ("postings.union", "repro.core.searcher", "union", None),
    ("searcher.filter", "repro.core.searcher", "tokenize", None),
    ("searcher.filter", "repro.baselines.engines", "tokenize", None),
    ("searcher.filter", "repro.core.searcher", "Query.matches", None),
    ("superpost.decode_header", "repro.core.searcher", "decode_header", _header_counts),
    ("skiplist.find", "repro.baselines.skiplist", "SkipListReader.find", None),
    ("skiplist.node", "repro.baselines.skiplist", "decode_node", None),
    ("harness.quick_profile", "repro.harness", "quick_profile", None),
    ("builder.build", "repro.core.builder", "AirphantBuilder.build", None),
    ("builder.profile_corpus", "repro.core.builder", "profile_corpus", None),
    ("builder.optimize", "repro.core.builder", "minimize_layers", None),
    ("builder.optimize", "repro.core.builder", "expected_false_positives", None),
    ("builder.encode_header", "repro.core.builder", "encode_header", None),
    ("builder.superpost", "repro.core.superpost", "SuperpostWriter.append", None),
    ("baselines.exact_postings_index", "repro.baselines.engines", "exact_postings_index", None),
    ("skiplist.build", "repro.baselines.skiplist", "build_skiplist", None),
]

NAME, START, END, PARENT, QUERY, COUNTS = range(6)


class Tracer:
    """Records spans for the benchmark's phases and, while installed, for
    every call into the TARGETS."""

    def __init__(self):
        self.spans: list[list] = []
        self.queries = 0  # traced query executions so far
        self.query_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, module, path, counts in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrap(name, original, counts)))

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.query_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts is not None:
                rec[COUNTS] = counts(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own phases."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")
