"""Unit tests for postings, the varint codec, and the string table."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postings import (
    Posting,
    StringTable,
    as_postings,
    decode_postings,
    encode_postings,
    intersect,
    read_uvarint,
    union,
    write_uvarint,
)


class TestUvarint:
    @pytest.mark.parametrize("v", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, v):
        buf = bytearray()
        write_uvarint(buf, v)
        got, pos = read_uvarint(bytes(buf), 0)
        assert got == v and pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_truncated_rejected(self):
        buf = bytearray()
        write_uvarint(buf, 300)
        with pytest.raises(ValueError):
            read_uvarint(bytes(buf[:-1]), 0)

    def test_single_byte_for_small(self):
        buf = bytearray()
        write_uvarint(buf, 100)
        assert len(buf) == 1

    @given(st.lists(st.integers(0, 2**62), max_size=30))
    @settings(max_examples=100)
    def test_stream_roundtrip(self, values):
        buf = bytearray()
        for v in values:
            write_uvarint(buf, v)
        pos = 0
        got = []
        for _ in values:
            v, pos = read_uvarint(bytes(buf), pos)
            got.append(v)
        assert got == values and pos == len(buf)


def rows(postings: list[Posting]) -> np.ndarray:
    """Postings as the ``(n, 3)`` int64 rows the array kernels take."""
    return np.array(
        [(p.blob_id, p.offset, p.length) for p in postings], dtype=np.int64
    ).reshape(-1, 3)


def reference_decode(buf: bytes) -> list[Posting]:
    """The per-posting decode loop the array decoder replaced."""
    n, pos = read_uvarint(buf, 0)
    postings: list[Posting] = []
    blob = 0
    off = 0
    for _ in range(n):
        db, pos = read_uvarint(buf, pos)
        blob += db
        if db:
            off = 0
        d_off, pos = read_uvarint(buf, pos)
        off += d_off
        length, pos = read_uvarint(buf, pos)
        postings.append(Posting(blob, off, length))
    if pos != len(buf):
        raise ValueError(f"trailing bytes after postings list ({len(buf) - pos})")
    return postings


_postings = st.lists(
    st.builds(
        Posting,
        blob_id=st.integers(0, 50),
        offset=st.integers(0, 10_000),
        length=st.integers(0, 500),
    ),
    max_size=60,
)

# few blob ids, so lists mix offset runs within a blob with blob-delta resets
_wide_postings = st.lists(
    st.builds(
        Posting,
        blob_id=st.one_of(st.integers(0, 3), st.integers(0, 2**62)),
        offset=st.one_of(st.integers(0, 300), st.integers(0, 2**62)),
        length=st.one_of(st.integers(0, 300), st.integers(0, 2**62)),
    ),
    max_size=40,
)


class TestPostingsCodec:
    def test_empty(self):
        assert as_postings(decode_postings(encode_postings([]))) == []

    def test_roundtrip_sorted_dedup(self):
        ps = [Posting(1, 10, 5), Posting(0, 0, 3), Posting(1, 10, 5)]
        assert as_postings(decode_postings(encode_postings(ps))) == sorted(set(ps))

    @given(_postings)
    @settings(max_examples=150)
    def test_roundtrip_property(self, ps):
        assert as_postings(decode_postings(encode_postings(ps))) == sorted(set(ps))

    @given(_wide_postings)
    @settings(max_examples=200)
    def test_array_decoder_matches_reference(self, ps):
        buf = encode_postings(ps)
        got = decode_postings(buf)
        assert got.dtype == np.int64 and got.shape == (len(set(ps)), 3)
        assert as_postings(got) == reference_decode(buf)

    def test_blob_delta_restarts_offset_run(self):
        ps = [Posting(0, 5, 1), Posting(0, 9, 1), Posting(2, 3, 1), Posting(2, 2**62, 2**62)]
        assert as_postings(decode_postings(encode_postings(ps))) == ps

    def test_compression_beats_naive(self):
        # delta+varint must be far smaller than 3x8-byte fixed width
        ps = [Posting(0, i * 100, 90) for i in range(1000)]
        assert len(encode_postings(ps)) < 1000 * 24 / 4

    def test_trailing_bytes_rejected(self):
        buf = encode_postings([Posting(0, 1, 2)]) + b"\x00"
        with pytest.raises(ValueError):
            decode_postings(buf)

    @pytest.mark.parametrize(
        "buf",
        [
            b"",  # no count
            b"\x01\x00\x01",  # one posting, its length missing
            b"\x01\x00\x01\x82",  # last varint cut mid-way
            encode_postings([Posting(0, 300, 2)])[:-2] + b"\x82",
        ],
    )
    def test_truncated_rejected(self, buf):
        with pytest.raises(ValueError):
            decode_postings(buf)

    @pytest.mark.parametrize("count", [0, 2, 5])
    def test_count_mismatch_rejected(self, count):
        buf = bytes([count]) + encode_postings([Posting(0, 1, 2)])[1:]
        with pytest.raises(ValueError):
            decode_postings(buf)

    def test_varint_longer_than_nine_bytes_rejected(self):
        nine = b"\x80" * 8 + b"\x01"  # 2**56 in 9 bytes: accepted
        assert as_postings(decode_postings(b"\x01\x00\x00" + nine)) == [Posting(0, 0, 2**56)]
        ten = b"\x80" * 9 + b"\x01"
        with pytest.raises(ValueError):
            decode_postings(b"\x01\x00\x00" + ten)

    def test_posting_ordering(self):
        assert Posting(0, 5, 1) < Posting(0, 6, 0) < Posting(1, 0, 0)


class TestSetOps:
    def test_intersect_basic(self):
        a = [Posting(0, 0, 1), Posting(0, 1, 1)]
        b = [Posting(0, 1, 1), Posting(0, 2, 1)]
        assert as_postings(intersect([rows(a), rows(b)])) == [Posting(0, 1, 1)]

    def test_intersect_empty_input(self):
        assert as_postings(intersect([])) == []

    def test_intersect_single_list(self):
        a = [Posting(0, 1, 1), Posting(0, 0, 1)]
        assert as_postings(intersect([rows(a)])) == sorted(a)

    def test_intersect_disjoint(self):
        assert as_postings(intersect([rows([Posting(0, 0, 1)]), rows([Posting(1, 0, 1)])])) == []

    def test_union_basic(self):
        a = [Posting(0, 0, 1)]
        b = [Posting(0, 1, 1)]
        assert as_postings(union([rows(a), rows(b)])) == [Posting(0, 0, 1), Posting(0, 1, 1)]

    def test_union_empty(self):
        assert as_postings(union([])) == []

    @given(_postings, _postings)
    @settings(max_examples=50)
    def test_intersect_matches_sets(self, a, b):
        assert set(as_postings(intersect([rows(a), rows(b)]))) == set(a) & set(b)

    @given(_postings, _postings)
    @settings(max_examples=50)
    def test_union_matches_sets(self, a, b):
        assert set(as_postings(union([rows(a), rows(b)]))) == set(a) | set(b)

    @given(st.lists(_wide_postings, max_size=4))
    @settings(max_examples=100)
    def test_set_ops_sorted_and_exact(self, lists):
        inter = set(lists[0]).intersection(*lists[1:]) if lists else set()
        assert as_postings(intersect([rows(ps) for ps in lists])) == sorted(inter)
        assert as_postings(union([rows(ps) for ps in lists])) == sorted(set().union(*lists))


class TestStringTable:
    def test_intern_stable(self):
        t = StringTable()
        assert t.intern("a") == t.intern("a") == 0
        assert t.intern("b") == 1

    def test_name_lookup(self):
        t = StringTable(["x", "y"])
        assert t.name(0) == "x" and t.id("y") == 1

    def test_contains_len(self):
        t = StringTable(["x"])
        assert "x" in t and "y" not in t and len(t) == 1

    def test_names_copy(self):
        t = StringTable(["x"])
        t.names().append("z")
        assert len(t) == 1
