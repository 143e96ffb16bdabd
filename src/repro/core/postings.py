"""Postings and their compressed binary codec.

A posting identifies a document by its physical location in cloud
storage — ``(blob name, byte offset, byte length)`` (§III-A) — so the
Searcher can range-read the document directly, with no per-document
metadata lookup.

Serialization follows the paper's compaction notes (§IV-C):

* repeated blob-name strings are compressed into integer keys through a
  :class:`StringTable` persisted once in the header block;
* postings are sorted and delta/varint encoded (LEB128), which is what
  keeps superposts small enough that fetching L of them in parallel
  beats one B-tree traversal.

The query path decodes and combines postings as numpy arrays of
``(blob_id, offset, length)`` rows and builds :class:`Posting` objects
only for its final candidates (:func:`as_postings`).

The paper uses Protocol Buffers; a hand-rolled varint codec reproduces
the same wire-size characteristics without the dependency (DESIGN.md §2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Posting:
    """A document reference: which blob, and the byte span inside it."""

    blob_id: int
    offset: int
    length: int


class StringTable:
    """Bidirectional blob-name ↔ integer-id map (string compression)."""

    def __init__(self, names: list[str] | None = None):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for n in names or []:
            self.intern(n)

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning a new one if unseen."""
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def name(self, blob_id: int) -> str:
        return self._names[blob_id]

    def id(self, name: str) -> int:
        return self._ids[name]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


# -- varint primitives -----------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """Append LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    """Read LEB128 unsigned varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated uvarint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("uvarint too long")


# -- postings codec ----------------------------------------------------------


def encode_postings(postings: list[Posting]) -> bytes:
    """Serialize a (super)postings list.

    Layout: count, then per posting (delta-encoded, sorted order):
    blob_id delta, offset delta (within same blob) or absolute (new blob),
    length. Sorting both canonicalizes set semantics and makes deltas small.
    """
    out = bytearray()
    ordered = sorted(set(postings))
    write_uvarint(out, len(ordered))
    prev_blob = 0
    prev_off = 0
    for p in ordered:
        db = p.blob_id - prev_blob
        write_uvarint(out, db)
        if db:
            prev_off = 0
        write_uvarint(out, p.offset - prev_off)
        write_uvarint(out, p.length)
        prev_blob, prev_off = p.blob_id, p.offset
    return bytes(out)


def decode_postings(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_postings` as sorted ``(n, 3)`` int64 rows
    ``(blob_id, offset, length)``; :func:`as_postings` turns them into
    :class:`Posting` objects.

    Every byte below 0x80 ends a varint; each varint's bytes are summed
    as 7-bit groups, and a segmented cumulative sum undoes the deltas (a
    nonzero blob delta restarts the offset run). Raises ``ValueError`` on
    truncated input, trailing bytes, a count that disagrees with the
    payload, or a varint longer than 9 bytes (over 63 bits).
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(data < 0x80)
    if not len(ends) or ends[-1] != len(data) - 1:
        raise ValueError("truncated uvarint")
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts + 1
    if widths.max() > 9:
        raise ValueError("uvarint too long")
    shifts = 7 * (np.arange(len(data)) - np.repeat(starts, widths))
    values = np.add.reduceat((data & 0x7F).astype(np.int64) << shifts, starts)
    n = int(values[0])
    if len(values) != 1 + 3 * n:
        raise ValueError(f"postings count {n} disagrees with {len(values) - 1} varints")
    deltas = values[1:].reshape(n, 3)
    restart = deltas[:, 0] != 0
    restart[:1] = True
    # running offset sum minus its value just before each run's start; the
    # int64 sum may wrap past 2**63, but the difference is exact
    run_sum = np.cumsum(deltas[:, 1])
    before_run = (run_sum - deltas[:, 1])[restart]
    rows = np.empty((n, 3), dtype=np.int64)
    np.cumsum(deltas[:, 0], out=rows[:, 0])
    rows[:, 1] = run_sum - before_run[np.cumsum(restart) - 1]
    rows[:, 2] = deltas[:, 2]
    return rows


def as_postings(rows: np.ndarray) -> list[Posting]:
    """``(n, 3)`` rows as :class:`Posting` objects, in row order."""
    return [Posting(blob, off, length) for blob, off, length in rows.tolist()]


#: One posting row as 24 raw bytes, so set operations compare whole rows.
_ROW = np.dtype((np.void, 24))


def _keys(rows: np.ndarray) -> np.ndarray:
    """Rows as 24-byte keys. Big-endian fields make the keys' byte order
    the rows' numeric order (postings are non-negative)."""
    return np.ascontiguousarray(rows, dtype=">i8").view(_ROW).ravel()


def _rows(keys: np.ndarray) -> np.ndarray:
    return keys.view(">i8").reshape(-1, 3).astype(np.int64)


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys. The stable sort (timsort) takes near-linear
    time on the already sorted runs that decoded lists form."""
    keys = np.sort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def intersect(lists: list[np.ndarray]) -> np.ndarray:
    """Set intersection of postings rows, sorted — the IoU query's final step."""
    if not lists:
        return np.empty((0, 3), dtype=np.int64)
    acc = _unique(_keys(lists[0]))
    for rows in lists[1:]:
        # both sides are distinct, so a key in both appears exactly twice
        both = np.sort(np.concatenate((acc, _unique(_keys(rows)))), kind="stable")
        acc = both[1:][both[1:] == both[:-1]]
    return _rows(acc)


def union(lists: list[np.ndarray]) -> np.ndarray:
    """Set union of postings rows, sorted — used by boolean OR queries (§IV-F)."""
    if not lists:
        return np.empty((0, 3), dtype=np.int64)
    return _rows(_unique(np.concatenate([_keys(rows) for rows in lists])))
