"""Flat binary checkpoint format.

Layout, all little-endian: 8-byte magic "GFCK0001", then one record per
array: uint32 name length, utf-8 name, uint32 rank, uint32 dims, float32
payload in C order. Record order and rank (0 too) survive a round-trip.

Records are streamed both ways. A save writes each record's header and
then its payload straight from the array (a float32 C-order array is not
copied), and a load reads each payload straight into the array it returns,
so neither holds the file's bytes beside the arrays. Every field is checked
against the file's size before it is read, so a cut file raises
`CheckpointError` naming the path and the offset where it ends too soon,
as does a record name that is not utf-8.
"""

import math
import os
import struct

import numpy as np

from ..errors import CheckpointError

MAGIC = b"GFCK0001"


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name, arr in arrays.items():
            _write_record(fh, name, arr)


def _write_record(fh, name, arr):
    """One record; a payload copied to float32 dies before the next is made."""
    payload = np.asarray(arr, dtype="<f4", order="C")  # ascontiguousarray makes 0-d 1-d
    encoded = name.encode("utf-8")
    rank = payload.ndim
    fh.write(struct.pack(f"<I{len(encoded)}sI{rank}I", len(encoded), encoded, rank, *payload.shape))
    fh.write(payload)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size
        offset = 8

        def take(n):
            """n, once the next n bytes are counted against the end of the file."""
            nonlocal offset
            if offset + n > size:
                raise CheckpointError(f"{path}: truncated at byte {offset}")
            offset += n
            return n

        while offset < size:
            (name_len,) = struct.unpack("<I", fh.read(take(4)))
            start = offset
            try:
                name = fh.read(take(name_len)).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: record name at byte {start} is not utf-8") from None
            (rank,) = struct.unpack("<I", fh.read(take(4)))
            shape = struct.unpack(f"<{rank}I", fh.read(take(4 * rank)))
            if name in arrays:
                raise CheckpointError(f"{path}: duplicate record {name!r}")
            take(4 * math.prod(shape))
            arrays[name] = payload = np.empty(shape, "<f4")
            fh.readinto(payload)
    return arrays
