"""Local-filesystem blob store with random (range) reads.

Stands in for GCP Cloud Storage / AWS S3 / Azure Blob Storage. Matches
the subset of the object-store contract Airphant relies on (§III-A):

* each object ("blob") is identified by a name;
* whole-object GET and byte-range GET (``Range`` header semantics) —
  fetching bytes from an arbitrary offset does not require a full read;
* objects are immutable once written (PUT replaces atomically).

No latency logic lives here — :class:`repro.cloud.client.CloudClient`
charges the simulated clock; the blob store is purely a byte container.
"""
from __future__ import annotations

import os
from pathlib import Path


class BlobStore:
    """A directory of named immutable blobs supporting range reads.

    Blob names may contain ``/`` which map to subdirectories; names are
    validated against path escapes so a store is confined to its root.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # name → its checked, resolved path; range reads are the hot path,
        # and resolving both paths costs more than the read itself
        self._read_paths: dict[str, str] = {}

    def _path(self, name: str) -> Path:
        p = (self.root / name).resolve()
        if not p.is_relative_to(self.root.resolve()):
            raise ValueError(f"blob name escapes store root: {name!r}")
        return p

    def put(self, name: str, data: bytes) -> None:
        """Write ``data`` as blob ``name`` (atomic replace)."""
        p = self._path(name)
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_suffix(p.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, p)

    def get(self, name: str) -> bytes:
        """Read the whole blob."""
        try:
            return self._path(name).read_bytes()
        except FileNotFoundError:
            raise KeyError(name) from None

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (a random read).

        Raises ``KeyError`` for a missing blob and ``ValueError`` when the
        requested range extends past the end of the blob — cloud stores
        reject unsatisfiable ranges rather than silently truncating.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"negative range ({offset}, {length})")
        p = self._read_paths.get(name)
        if p is None:
            p = self._read_paths[name] = str(self._path(name))
        try:
            fd = os.open(p, os.O_RDONLY)
        except FileNotFoundError:
            raise KeyError(name) from None
        try:
            data = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        if len(data) != length:
            raise ValueError(
                f"range ({offset}, {length}) exceeds blob {name!r} "
                f"of size {self.size(name)}"
            )
        return data

    def size(self, name: str) -> int:
        """Byte size of a blob."""
        try:
            return self._path(name).stat().st_size
        except FileNotFoundError:
            raise KeyError(name) from None

    def exists(self, name: str) -> bool:
        return self._path(name).is_file()

    def delete(self, name: str) -> None:
        try:
            self._path(name).unlink()
        except FileNotFoundError:
            raise KeyError(name) from None

    def list(self, prefix: str = "") -> list[str]:
        """All blob names under ``prefix``, sorted."""
        names = []
        for p in self.root.rglob("*"):
            if p.is_file() and not p.name.endswith(".tmp"):
                rel = p.relative_to(self.root).as_posix()
                if rel.startswith(prefix):
                    names.append(rel)
        return sorted(names)

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under ``prefix`` — used for index-size tables."""
        return sum(self.size(n) for n in self.list(prefix))
