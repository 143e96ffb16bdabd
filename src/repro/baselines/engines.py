"""The five engines of the evaluation (§V-A) behind one interface.

``AirphantEngine``, ``LuceneLike`` (skip list), ``SQLiteLike`` (B-tree),
``ElasticLike`` (searchable-snapshot chunk reads over the skip list), and
``HashTableEngine`` (IoU Sketch pinned to L=1). Per the paper's setup:

* all postings are compressed identically (the shared superpost codec);
* all engines share Airphant's document-retrieval routine;
* top-K fetches only K postings for the exact baselines and R_K (Eq 6)
  for the statistical engines;
* every engine reads through the same :class:`CloudClient`, so latency
  numbers decompose identically for the Fig 8 breakdown.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines import btree as bt
from repro.baselines import skiplist as sl
from repro.cloud.blobstore import BlobStore
from repro.cloud.client import CloudClient, FetchRequest
from repro.core.builder import AirphantBuilder, BuilderConfig, doc_word_pairs
from repro.core.postings import (
    Posting,
    StringTable,
    as_postings,
    decode_postings,
    read_uvarint,
    write_uvarint,
)
from repro.core.searcher import AirphantSearcher, Query, QueryStats, SearchResult
from repro.core.superpost import BinPointer, SuperpostWriter, block_blob_name
from repro.corpora.parsers import tokenize

_NONE_HEAD = (0xFFFFFFFFFFFFFFFF, 0)


# -- shared build + retrieval routines ----------------------------------------


def exact_postings_index(
    spark: SparkSession,
    store: BlobStore,
    corpus: DataFrame,
    prefix: str,
    block_size: int = 4 << 20,
) -> tuple[list[tuple[str, BinPointer]], StringTable, int]:
    """Aggregate exact per-term postings with Spark and compact them into
    superpost blocks — the inverted-index half every baseline shares.
    Postings lists are serialized on executors (applyInPandas); the
    driver streams only (word, payload) pairs.

    Returns the sorted (term → pointer) dictionary, the blob-name string
    table, and the number of blocks written.
    """
    import pandas as pd

    from repro.core.builder import _encode_postings_pdf, corpus_string_table

    strings = corpus_string_table(corpus)
    blob_ids = {n: i for i, n in enumerate(strings.names())}

    def encode_word(key, pdf):
        return pd.DataFrame(
            {"word": [key[0]], "payload": [_encode_postings_pdf(pdf, blob_ids)]}
        )

    rows = (
        doc_word_pairs(corpus)
        .groupBy("word")
        .applyInPandas(encode_word, "word string, payload binary")
        .orderBy("word")
    )
    writer = SuperpostWriter(store, prefix, block_size)
    terms: list[tuple[str, BinPointer]] = []
    for row in rows.toLocalIterator():
        terms.append((row["word"], writer.append(bytes(row["payload"]))))
    n_blocks = writer.finish()
    return terms, strings, n_blocks


def fetch_documents(
    client: CloudClient,
    name_of,
    postings: list[Posting],
    query: Query,
) -> tuple[list[SearchResult], int]:
    """Airphant's document-retrieval routine, shared by every engine
    (§V-A): one concurrent batch of range reads, then exact filtering.
    Returns (matching documents, #false positives filtered)."""
    requests = [FetchRequest(name_of(p.blob_id), p.offset, p.length) for p in postings]
    payloads = client.fetch_batch(requests) if requests else []
    results: list[SearchResult] = []
    n_fp = 0
    for posting, raw in zip(postings, payloads):
        text = raw.decode("utf-8")
        if query.matches(set(tokenize(text))):
            results.append(
                SearchResult(posting=posting, blob=name_of(posting.blob_id), text=text)
            )
        else:
            n_fp += 1
    return results, n_fp


def _encode_meta(strings: StringTable, ints: dict[str, list[int]]) -> bytes:
    """Tiny header codec for baseline metadata blobs."""
    out = bytearray()
    names = strings.names()
    write_uvarint(out, len(names))
    for n in names:
        b = n.encode("utf-8")
        write_uvarint(out, len(b))
        out.extend(b)
    write_uvarint(out, len(ints))
    for key in sorted(ints):
        kb = key.encode("utf-8")
        write_uvarint(out, len(kb))
        out.extend(kb)
        write_uvarint(out, len(ints[key]))
        for v in ints[key]:
            write_uvarint(out, v)
    return bytes(out)


def _decode_meta(buf: bytes) -> tuple[StringTable, dict[str, list[int]]]:
    pos = 0
    n_names, pos = read_uvarint(buf, pos)
    names = []
    for _ in range(n_names):
        ln, pos = read_uvarint(buf, pos)
        names.append(buf[pos : pos + ln].decode("utf-8"))
        pos += ln
    n_keys, pos = read_uvarint(buf, pos)
    ints: dict[str, list[int]] = {}
    for _ in range(n_keys):
        ln, pos = read_uvarint(buf, pos)
        key = buf[pos : pos + ln].decode("utf-8")
        pos += ln
        n_vals, pos = read_uvarint(buf, pos)
        vals = []
        for _ in range(n_vals):
            v, pos = read_uvarint(buf, pos)
            vals.append(v)
        ints[key] = vals
    return StringTable(names), ints


def _meta_blob_name(prefix: str) -> str:
    return f"{prefix}/meta.bin"


# -- engine interface -----------------------------------------------------------


class Engine(abc.ABC):
    """Common engine contract used by every latency experiment."""

    name: str = "engine"

    def __init__(self, spark: SparkSession, store: BlobStore, client: CloudClient):
        self.spark = spark
        self.store = store
        self.client = client
        self.index_name: str | None = None

    @abc.abstractmethod
    def build(self, corpus: DataFrame, index_name: str) -> None:
        """Index the corpus and persist everything to the blob store."""

    @abc.abstractmethod
    def open(self) -> None:
        """Initialize the query side (download headers / warm caches)."""

    @abc.abstractmethod
    def search(self, word: str, k: int | None = None) -> tuple[list[SearchResult], QueryStats]:
        """End-to-end keyword search returning exact matches + stats."""

    @abc.abstractmethod
    def lookup(self, word: str) -> tuple[list[Posting], QueryStats]:
        """Term-index lookup only: obtain the (final) postings list."""

    def index_bytes(self) -> int:
        """Persisted index size — Figs 15/16d."""
        if self.index_name is None:
            raise RuntimeError("build() first")
        return self.store.total_bytes(self.index_name + "/")

    # shared epilogue for exact-postings baselines
    def _finish_search(
        self, word: str, postings: list[Posting], k: int | None, lookup_ms: float,
        strings: StringTable,
    ) -> tuple[list[SearchResult], QueryStats]:
        query = Query.word(word)
        to_fetch = postings[: k] if k is not None else postings
        results, n_fp = fetch_documents(self.client, strings.name, to_fetch, query)
        led = self.client.ledger
        return results, QueryStats(
            lookup_ms=lookup_ms,
            doc_ms=led.elapsed_ms - lookup_ms,
            total_ms=led.elapsed_ms,
            wait_ms=led.wait_ms,
            download_ms=led.download_ms,
            round_trips=led.round_trips,
            bytes_fetched=led.bytes_fetched,
            n_candidates=len(postings),
            n_fetched=len(to_fetch),
            n_false_positives=n_fp,
            n_results=len(results),
        )


# -- Airphant + HashTable ---------------------------------------------------------


class AirphantEngine(Engine):
    """The paper's system: IoU Sketch Builder + Searcher."""

    name = "airphant"

    def __init__(self, spark, store, client, config: BuilderConfig | None = None):
        super().__init__(spark, store, client)
        self.config = config or BuilderConfig()
        self.searcher: AirphantSearcher | None = None
        self.report = None

    def build(self, corpus: DataFrame, index_name: str) -> None:
        self.report = AirphantBuilder(self.spark, self.store, self.config).build(
            corpus, index_name
        )
        self.index_name = index_name

    def open(self) -> None:
        self.searcher = AirphantSearcher(self.client, self.index_name)
        self.searcher.open()

    def search(self, word, k=None):
        return self.searcher.search(word, k=k)

    def lookup(self, word):
        ledger = self.client.begin_query()
        postings = self.searcher.lookup(word)
        led = ledger
        return postings, QueryStats(
            lookup_ms=led.elapsed_ms,
            total_ms=led.elapsed_ms,
            wait_ms=led.wait_ms,
            download_ms=led.download_ms,
            round_trips=led.round_trips,
            bytes_fetched=led.bytes_fetched,
            n_candidates=len(postings),
        )


class HashTableEngine(AirphantEngine):
    """Naive hash-table inverted index == IoU Sketch with a single layer
    (same total bins, same common-word bins, same compression)."""

    name = "hashtable"

    def __init__(self, spark, store, client, config: BuilderConfig | None = None):
        base = config or BuilderConfig()
        super().__init__(
            spark,
            store,
            client,
            BuilderConfig(
                bins=base.bins,
                f0=base.f0,
                common_fraction=base.common_fraction,
                n_layers=1,  # the defining difference
                seed=base.seed,
                block_size=base.block_size,
            ),
        )


# -- skip list (Lucene) -----------------------------------------------------------


class LuceneLike(Engine):
    """Skip-list term index: O(log n) sequential dependent reads (§II-B)."""

    name = "lucene"
    cache_levels = 2

    def __init__(self, spark, store, client, seed: int = 0):
        super().__init__(spark, store, client)
        self.seed = seed
        self.reader: sl.SkipListReader | None = None
        self.strings: StringTable | None = None

    def build(self, corpus: DataFrame, index_name: str) -> None:
        terms, strings, _ = exact_postings_index(self.spark, self.store, corpus, index_name)
        layout = sl.build_skiplist(self.store, index_name, terms, seed=self.seed)
        heads_flat: list[int] = []
        for h in layout.heads:
            off, ln = h if h is not None else _NONE_HEAD
            heads_flat.extend([off, ln])
        self.store.put(
            _meta_blob_name(index_name),
            _encode_meta(strings, {"heads": heads_flat, "seed": [self.seed]}),
        )
        self.index_name = index_name

    def _make_reader(self, client) -> sl.SkipListReader:
        raw = client.fetch(_meta_blob_name(self.index_name))
        strings, ints = _decode_meta(raw)
        flat = ints["heads"]
        heads = []
        for i in range(0, len(flat), 2):
            pair = (flat[i], flat[i + 1])
            heads.append(None if pair == _NONE_HEAD else pair)
        self.strings = strings
        return sl.SkipListReader(client, self.index_name, heads, self.cache_levels)

    def open(self) -> None:
        self.client.begin_query()
        self.reader = self._make_reader(self.client)
        self.reader.warm_cache()

    def _lookup_postings(self, word: str) -> list[Posting]:
        ptr = self.reader.find(word)
        if ptr is None or ptr.empty:
            return []
        raw = self.client.fetch(
            block_blob_name(self.index_name, ptr.block_id), ptr.offset, ptr.length
        )
        return as_postings(decode_postings(raw))

    def lookup(self, word):
        led = self.client.begin_query()
        postings = self._lookup_postings(word)
        return postings, QueryStats(
            lookup_ms=led.elapsed_ms,
            total_ms=led.elapsed_ms,
            wait_ms=led.wait_ms,
            download_ms=led.download_ms,
            round_trips=led.round_trips,
            bytes_fetched=led.bytes_fetched,
            n_candidates=len(postings),
        )

    def search(self, word, k=None):
        led = self.client.begin_query()
        postings = self._lookup_postings(word)
        return self._finish_search(word, postings, k, led.elapsed_ms, self.strings)


# -- B-tree (SQLite) ----------------------------------------------------------------


class SQLiteLike(Engine):
    """Paged B-tree term index with a cached root (SQLite access pattern)."""

    name = "sqlite"

    def __init__(self, spark, store, client):
        super().__init__(spark, store, client)
        self.reader: bt.BTreeReader | None = None
        self.strings: StringTable | None = None

    def build(self, corpus: DataFrame, index_name: str) -> None:
        terms, strings, _ = exact_postings_index(self.spark, self.store, corpus, index_name)
        layout = bt.build_btree(self.store, index_name, terms)
        self.store.put(
            _meta_blob_name(index_name),
            _encode_meta(strings, {"root": [layout.root_page], "depth": [layout.depth]}),
        )
        self.index_name = index_name

    def open(self) -> None:
        self.client.begin_query()
        raw = self.client.fetch(_meta_blob_name(self.index_name))
        strings, ints = _decode_meta(raw)
        self.strings = strings
        self.reader = bt.BTreeReader(self.client, self.index_name, ints["root"][0])
        self.reader.warm_root()

    def _lookup_postings(self, word: str) -> list[Posting]:
        ptr = self.reader.find(word)
        if ptr is None or ptr.empty:
            return []
        raw = self.client.fetch(
            block_blob_name(self.index_name, ptr.block_id), ptr.offset, ptr.length
        )
        return as_postings(decode_postings(raw))

    def lookup(self, word):
        led = self.client.begin_query()
        postings = self._lookup_postings(word)
        return postings, QueryStats(
            lookup_ms=led.elapsed_ms,
            total_ms=led.elapsed_ms,
            wait_ms=led.wait_ms,
            download_ms=led.download_ms,
            round_trips=led.round_trips,
            bytes_fetched=led.bytes_fetched,
            n_candidates=len(postings),
        )

    def search(self, word, k=None):
        led = self.client.begin_query()
        postings = self._lookup_postings(word)
        return self._finish_search(word, postings, k, led.elapsed_ms, self.strings)


# -- Elasticsearch over searchable snapshots ----------------------------------------


@dataclass
class _ChunkedFetcher:
    """Searchable-snapshot read model: every byte arrives via fixed-size
    cache-region chunks, and the block cache is cold per query (the paper
    deploys Elasticsearch on a 2 GB e2-small, far smaller than the
    snapshot — regions get evicted between queries). Small indexes fit in
    one chunk (why Elasticsearch is only ~1.09x slower on Cranfield);
    large ones turn every traversal hop into a multi-megabyte download
    (why it is up to 113x slower elsewhere)."""

    client: CloudClient
    chunk_size: int = 2 << 20
    #: Snapshot-repository overhead per region miss: recovery bookkeeping
    #: and cache write-back on the undersized VM — the reason searchable
    #: snapshots "spend much time in mounting" (§V-B0b).
    miss_penalty_ms: float = 120.0

    def __post_init__(self):
        self._cache: dict[tuple[str, int], bytes] = {}
        self._sizes: dict[str, int] = {}

    def reset(self) -> None:
        self._cache.clear()

    def _size(self, name: str) -> int:
        if name not in self._sizes:
            self._sizes[name] = self.client.store.size(name)
        return self._sizes[name]

    def fetch(self, name: str, offset: int = 0, length: int | None = None) -> bytes:
        size = self._size(name)
        if length is None:
            offset, length = 0, size
        first = offset // self.chunk_size
        last = (offset + length - 1) // self.chunk_size if length else first
        parts = []
        for cid in range(first, last + 1):
            key = (name, cid)
            if key not in self._cache:
                start = cid * self.chunk_size
                self.client.charge(self.miss_penalty_ms)
                self._cache[key] = self.client.fetch(
                    name, start, min(self.chunk_size, size - start)
                )
            parts.append(self._cache[key])
        blob = b"".join(parts)
        rel = offset - first * self.chunk_size
        return blob[rel : rel + length]


class ElasticLike(LuceneLike):
    """Lucene's structure (Elasticsearch embeds Lucene) read through the
    searchable-snapshot chunk model."""

    name = "elasticsearch"

    def __init__(
        self,
        spark,
        store,
        client,
        seed: int = 0,
        chunk_size: int = 2 << 20,
        miss_penalty_ms: float = 120.0,
    ):
        super().__init__(spark, store, client, seed=seed)
        self.chunk_size = chunk_size
        self.miss_penalty_ms = miss_penalty_ms
        self.fetcher: _ChunkedFetcher | None = None

    def open(self) -> None:
        self.client.begin_query()
        self.fetcher = _ChunkedFetcher(self.client, self.chunk_size, self.miss_penalty_ms)
        self.reader = self._make_reader(self.fetcher)
        # mounting the snapshot warms nothing durable at 2 GB RAM; the
        # skip-list warm cache is reloaded per query via chunks instead.
        self.reader.cache_levels = 0

    def _lookup_postings(self, word: str) -> list[Posting]:
        self.fetcher.reset()  # cold block cache each query
        ptr = self.reader.find(word)
        if ptr is None or ptr.empty:
            return []
        raw = self.fetcher.fetch(
            block_blob_name(self.index_name, ptr.block_id), ptr.offset, ptr.length
        )
        return as_postings(decode_postings(raw))


ENGINE_CLASSES = {
    "airphant": AirphantEngine,
    "lucene": LuceneLike,
    "elasticsearch": ElasticLike,
    "sqlite": SQLiteLike,
    "hashtable": HashTableEngine,
}
