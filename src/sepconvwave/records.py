"""Little-endian tensor records, shared by checkpoints and datasets.

Both binary formats open with a 4-byte magic and a u32 format version and
encode every array the same way: rank u64, extents as rank x u64, then
the float64 data.  :class:`RecordReader` checks each read against the
bytes left in the file, so a truncated or padded file fails with a
``ValueError`` that names the file and the byte offset.  Files are
written through :func:`atomic_write`, so a write that fails midway
leaves the previous file, if any, as it was.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from contextlib import contextmanager

import numpy as np

__all__ = ["atomic_write", "write_header", "write_array", "RecordReader"]


@contextmanager
def atomic_write(path):
    """Binary file handle whose bytes replace ``path`` only once all are written.

    The bytes go to a temporary file in the same directory, which is
    flushed and fsynced before ``os.replace`` renames it onto ``path``,
    so even an OS crash never leaves a short file under that name; if the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_header(fh, magic: bytes, version: int) -> None:
    fh.write(magic)
    fh.write(struct.pack("<I", version))


def write_array(fh, array: np.ndarray) -> None:
    data = np.asarray(array, dtype="<f8", order="C")
    fh.write(struct.pack(f"<Q{data.ndim}Q", data.ndim, *data.shape))
    fh.write(data)


class RecordReader:
    """Strict sequential reader over one record file."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self.offset = 0

    def __enter__(self) -> "RecordReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def at_end(self) -> bool:
        return self.offset == self._size

    def take(self, n: int, what: str) -> bytes:
        left = self._size - self.offset
        if n > left:
            raise ValueError(
                f"{self.path}: truncated at byte {self.offset}: {what} needs {n} bytes, {left} left"
            )
        self.offset += n
        return self._fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def header(self, magic: bytes, version: int, kind: str) -> None:
        """Check the magic and the format version of a ``kind`` file."""
        if self.take(len(magic), "magic") != magic:
            raise ValueError(f"{self.path}: not a {kind} file (bad magic)")
        (found,) = self.unpack("<I", "format version")
        if found != version:
            raise ValueError(f"{self.path}: unsupported {kind} version {found}")

    def array(self, what: str = "tensor") -> np.ndarray:
        """The next tensor record as a read-only float64 array over the bytes read."""
        (rank,) = self.unpack("<Q", f"{what} rank")
        shape = struct.unpack(f"<{rank}Q", self.take(8 * rank, f"{what} extents"))
        data = self.take(8 * math.prod(shape), f"{what} data")
        return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64, copy=False)

    def finish(self) -> None:
        """Reject bytes after the last record."""
        if not self.at_end():
            raise ValueError(
                f"{self.path}: {self._size - self.offset} trailing bytes at byte {self.offset}"
            )
