"""Checkpoint container: JSON manifest header plus named float32 tensor blobs.

Layout:
    b"PSPECKPT1\\n"
    <decimal byte length of the JSON header>\\n
    <JSON header (utf-8)>\\n
    <blob: concatenated little-endian float32 tensors>

The header carries arbitrary metadata under "meta" and a tensor directory
(name, shape, dtype, byte offset into the blob). A reader accepts only
"float32" entries whose values are all finite, each name once.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAGIC = b"PSPECKPT1\n"


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def write_checkpoint(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    directory = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        # blobs are row-major and written straight from the array: a
        # channels-last conv weight costs one transposing copy, others none
        data = np.ascontiguousarray(arr, dtype="<f4")
        directory.append({
            "name": name,
            "shape": list(data.shape),
            "dtype": "float32",
            "offset": offset,
        })
        blobs.append(data)
        offset += data.nbytes
    header = json.dumps({"meta": meta, "tensors": directory, "blob_bytes": offset},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(str(len(header)).encode("ascii") + b"\n")
        fh.write(header)
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic")
    # a memoryview, so slicing the blob out of it copies nothing
    rest = memoryview(raw)[len(MAGIC):]
    try:
        nl = raw.index(b"\n", len(MAGIC)) - len(MAGIC)
        header_len = int(bytes(rest[:nl]))
        header_start = nl + 1
        header = json.loads(bytes(rest[header_start:header_start + header_len]).decode("utf-8"))
        meta, directory, blob_bytes = header["meta"], header["tensors"], header["blob_bytes"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from None
    blob_start = header_start + header_len + 1
    blob = rest[blob_start:]
    if len(blob) != blob_bytes:
        raise CheckpointError(
            f"{path}: blob is {len(blob)} bytes, header says {blob_bytes}")
    tensors = {}
    try:
        for entry in directory:
            name, shape = entry["name"], tuple(entry["shape"])
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            if entry["dtype"] != "float32":
                raise CheckpointError(
                    f"{path}: tensor {name!r} has dtype {entry['dtype']!r}, not 'float32'")
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=entry["offset"])
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds NaN or Inf")
            tensors[name] = arr.reshape(shape).copy()
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed tensor entry: {exc!r}") from None
    return meta, tensors
