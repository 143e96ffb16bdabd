"""Reference answers computed apart from the program, and the per-query checks.

The oracle reads the corpus blobs' raw bytes straight from disk, splits
them into documents at newlines with its own byte offsets, and splits
documents into words at ASCII whitespace (``bytes.split()``: space, tab,
newline, carriage return, vertical tab, form feed, the set Java's ``\\s``
matches in the Builder). It shares no code with ``repro``: not
``write_corpus`` offsets, not ``doc_word_pairs`` and not ``tokenize``.

A query is a DNF, a list of clauses, each a list of words: the documents
matching it contain every word of at least one clause. A result is a
``(blob, offset, length, text)`` tuple.
"""
from __future__ import annotations

from pathlib import Path

Key = tuple[str, int, int]  # (blob, byte offset, byte length)
Result = tuple[str, int, int, str]
Clauses = list[list[str]]


def satisfies(clauses: Clauses, raw: bytes) -> bool:
    """Whether a document's raw bytes satisfy the DNF predicate."""
    words = {w.decode("utf-8") for w in raw.split()}
    return any(all(w in words for w in clause) for clause in clauses)


class Oracle:
    """Inverted index over raw corpus blobs: word -> ids of the documents
    holding it, with each document's byte range."""

    def __init__(self, blobs: dict[str, bytes]):
        self.blobs = blobs
        self.docs: list[Key] = []
        self.index: dict[str, list[int]] = {}
        for name in sorted(blobs):  # the program orders postings by blob name
            pos = 0
            for line in blobs[name].split(b"\n"):
                if line:
                    doc = len(self.docs)
                    self.docs.append((name, pos, len(line)))
                    for w in set(line.split()):
                        self.index.setdefault(w.decode("utf-8"), []).append(doc)
                pos += len(line) + 1

    @classmethod
    def from_dir(cls, store_root: Path, prefix: str) -> "Oracle":
        """Read every ``*.txt`` blob under ``store_root/prefix`` from disk."""
        files = sorted((store_root / prefix).glob("*.txt"))
        if not files:
            raise FileNotFoundError(f"no corpus blobs under {store_root / prefix}")
        return cls({f.relative_to(store_root).as_posix(): f.read_bytes() for f in files})

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def n_terms(self) -> int:
        return len(self.index)

    @property
    def corpus_bytes(self) -> int:
        return sum(len(b) for b in self.blobs.values())

    def vocabulary(self) -> list[str]:
        return sorted(self.index)

    def doc_words(self, doc: int) -> list[str]:
        """Distinct words of document ``doc``, sorted."""
        name, off, ln = self.docs[doc]
        return sorted({w.decode("utf-8") for w in self.blobs[name][off : off + ln].split()})

    def matches(self, clauses: Clauses) -> list[Key]:
        """Every matching document's range, in (blob, offset) order."""
        hit: set[int] = set()
        for clause in clauses:
            ids = set(self.index.get(clause[0], ()))
            for w in clause[1:]:
                ids &= set(self.index.get(w, ()))
            hit |= ids
        return [self.docs[d] for d in sorted(hit)]

    def bytes_at(self, key: Key) -> bytes | None:
        """The raw bytes of a range, or None when it lies outside the corpus."""
        name, off, ln = key
        blob = self.blobs.get(name)
        if blob is None or off < 0 or ln < 0 or off + ln > len(blob):
            return None
        return blob[off : off + ln]


def check_query(
    oracle: Oracle,
    clauses: Clauses,
    k: int | None,
    results: list[Result],
    batches: int | None = None,
    max_batches: int | None = None,
    first_k: bool = False,
) -> str | None:
    """Check one query's output against the oracle; None when it passes,
    otherwise the first problem found.

    * every result's text equals the raw bytes at its range and satisfies
      the predicate;
    * ``k is None``: the results are exactly the oracle's matches;
    * top-K: results are distinct matches, at least min(k, |matches|) of
      them, and with ``first_k`` exactly the first k in (blob, offset) order;
    * at most ``max_batches`` concurrent batches were used.
    """
    keys = [(b, o, n) for b, o, n, _ in results]
    if len(set(keys)) != len(keys):
        return "duplicate results"
    for key, (_, _, _, text) in zip(keys, results):
        raw = oracle.bytes_at(key)
        if raw is None:
            return f"range {key} lies outside the corpus"
        if raw != text.encode("utf-8"):
            return f"text of {key} differs from the bytes at that range"
        if not satisfies(clauses, raw):
            return f"{key} does not satisfy the query"
    expected = oracle.matches(clauses)
    if k is None:
        got, want = set(keys), set(expected)
        if got != want:
            return f"{len(want - got)} matches missing, {len(got - want)} results extra"
    else:
        extra = set(keys) - set(expected)
        if extra:
            return f"{len(extra)} results are not matches"
        if len(keys) < min(k, len(expected)):
            return f"top-{k} shortfall: {len(keys)} of {len(expected)} matches returned"
        if first_k and keys != expected[:k]:
            return f"results are not the first {k} matches in (blob, offset) order"
    if max_batches is not None and batches is not None and batches > max_batches:
        return f"{batches} batches used, at most {max_batches} allowed"
    return None
