"""Unit tests for the local-filesystem blob store substrate."""
import pytest

from repro.cloud.blobstore import BlobStore


@pytest.fixture()
def store(tmp_path):
    return BlobStore(tmp_path)


class TestPutGet:
    def test_roundtrip(self, store):
        store.put("a.bin", b"hello")
        assert store.get("a.bin") == b"hello"

    def test_overwrite_replaces(self, store):
        store.put("a.bin", b"one")
        store.put("a.bin", b"two!")
        assert store.get("a.bin") == b"two!"
        assert store.size("a.bin") == 4

    def test_nested_names(self, store):
        store.put("idx/sub/block-0.bin", b"x" * 10)
        assert store.get("idx/sub/block-0.bin") == b"x" * 10

    def test_empty_blob(self, store):
        store.put("empty", b"")
        assert store.get("empty") == b""
        assert store.size("empty") == 0

    def test_missing_blob_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("nope")

    def test_path_escape_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("../evil", b"x")

    @pytest.mark.parametrize("payload", [b"\x00\xff" * 100, bytes(range(256))])
    def test_binary_safe(self, store, payload):
        store.put("bin", payload)
        assert store.get("bin") == payload


class TestRangeReads:
    def test_middle_range(self, store):
        store.put("r", b"0123456789")
        assert store.get_range("r", 3, 4) == b"3456"

    def test_full_range(self, store):
        store.put("r", b"abcdef")
        assert store.get_range("r", 0, 6) == b"abcdef"

    def test_zero_length(self, store):
        store.put("r", b"abc")
        assert store.get_range("r", 1, 0) == b""

    def test_overrun_raises(self, store):
        store.put("r", b"abc")
        with pytest.raises(ValueError):
            store.get_range("r", 2, 5)

    def test_negative_offset_raises(self, store):
        store.put("r", b"abc")
        with pytest.raises(ValueError):
            store.get_range("r", -1, 2)

    def test_missing_blob_range(self, store):
        with pytest.raises(KeyError):
            store.get_range("nope", 0, 1)

    @pytest.mark.parametrize("offset,length", [(0, 1), (0, 100), (99, 1), (50, 50)])
    def test_boundaries(self, store, offset, length):
        data = bytes(range(100)) * 1
        store.put("b", data)
        assert store.get_range("b", offset, length) == data[offset : offset + length]


class TestListing:
    def test_list_sorted_and_prefixed(self, store):
        store.put("idx/b.bin", b"1")
        store.put("idx/a.bin", b"2")
        store.put("other/c.bin", b"3")
        assert store.list("idx/") == ["idx/a.bin", "idx/b.bin"]
        assert store.list() == ["idx/a.bin", "idx/b.bin", "other/c.bin"]

    def test_total_bytes(self, store):
        store.put("p/a", b"xx")
        store.put("p/b", b"yyy")
        store.put("q/c", b"z")
        assert store.total_bytes("p/") == 5
        assert store.total_bytes() == 6

    def test_delete(self, store):
        store.put("d", b"x")
        store.delete("d")
        assert not store.exists("d")
        with pytest.raises(KeyError):
            store.delete("d")

    def test_exists(self, store):
        assert not store.exists("e")
        store.put("e", b"1")
        assert store.exists("e")


class TestRangeReadsAfterChanges:
    """``get_range`` keeps each name's checked path; the bytes it returns
    must still be the blob's current bytes."""

    def test_replaced_blob_read_fresh(self, store, tmp_path):
        store.put("r", b"old bytes")
        assert store.get_range("r", 0, 3) == b"old"
        store.put("r", b"new bytes")
        assert store.get_range("r", 0, 3) == b"new"
        other = BlobStore(tmp_path)
        assert other.get_range("r", 4, 5) == b"bytes"
        other.put("r", b"third")
        assert store.get_range("r", 0, 5) == b"third"

    def test_deleted_blob_raises_keyerror(self, store):
        store.put("d", b"abc")
        assert store.get_range("d", 0, 1) == b"a"
        store.delete("d")
        with pytest.raises(KeyError):
            store.get_range("d", 0, 1)

    @pytest.mark.parametrize("name", ["../evil", "a/../../evil", "/etc/hostname"])
    def test_escaping_name_rejected_every_call(self, store, name):
        store.put("ok", b"abc")
        for _ in range(3):
            assert store.get_range("ok", 0, 3) == b"abc"
            with pytest.raises(ValueError, match="escapes"):
                store.get_range(name, 0, 1)

    def test_overrun_after_cached_read_raises(self, store):
        store.put("r", b"abcdef")
        assert store.get_range("r", 0, 6) == b"abcdef"
        store.put("r", b"abc")
        with pytest.raises(ValueError, match="exceeds"):
            store.get_range("r", 2, 5)
