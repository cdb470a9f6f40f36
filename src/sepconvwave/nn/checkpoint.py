"""Binary model checkpoints.

Layout (everything little-endian):

* magic ``b"SCNN"``
* format version, u32
* a record per tensor, until end of file:
  name length u32, name bytes (UTF-8), rank u64, extents rank x u64,
  data as float64; names are unique

Round trips are bit-exact: the float64 payload is written raw.  Headers
and tensors use the record codec of :mod:`sepconvwave.records`, shared
with the dataset files.
"""

from __future__ import annotations

import struct

import numpy as np

from ..records import RecordReader, atomic_write, write_array, write_header

__all__ = ["MAGIC", "VERSION", "save_tensors", "load_tensors", "save_model", "load_model"]

MAGIC = b"SCNN"
VERSION = 1


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    with atomic_write(path) as fh:
        write_header(fh, MAGIC, VERSION)
        for name, array in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            write_array(fh, array)


def load_tensors(path) -> dict[str, np.ndarray]:
    tensors = {}
    with RecordReader(path) as reader:
        reader.header(MAGIC, VERSION, "checkpoint")
        while not reader.at_end():
            (name_len,) = reader.unpack("<I", "name length")
            at = reader.offset
            try:
                name = reader.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: tensor name at byte {at} is not UTF-8") from None
            if name in tensors:
                raise ValueError(f"{path}: repeated tensor name {name!r} at byte {at}")
            tensors[name] = reader.array(name)
    return tensors


def save_model(path, model) -> None:
    save_tensors(path, model.state_dict())


def load_model(path, model) -> None:
    tensors = load_tensors(path)
    try:
        model.load_state_dict(tensors)
    except ValueError as exc:  # e.g. a file cut at a record boundary: too few tensors
        raise ValueError(f"{path}: {exc}") from None
