"""Shared float64 primitives: stable elementwise functions, the one CSR row
gather, the one scatter kernel and the one integer dedup, atomic file writes
and the tensor file codec used by both checkpoints."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def sigmoid(x):
    """Stable logistic function, elementwise: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both from e = e^-|x|, so no exp overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(x):
    """log(1 + e^x) without overflow; equals -log(sigmoid(-x))."""
    return np.logaddexp(0.0, x)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def csr_rows(indptr: np.ndarray, values: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """(concatenation, counts) of the given rows of CSR (indptr, values), in order."""
    rows = np.asarray(rows, dtype=np.int64)
    start = indptr[rows]
    counts = indptr[rows + 1] - start
    shift = np.repeat(start - (np.cumsum(counts) - counts), counts)
    return values[np.arange(len(shift)) + shift], counts


def segment_sum(index, values, n: int) -> np.ndarray:
    """Scatter-add: out[k] = sum of values[m] over every m with index[m] == k.

    `values` is [M] or [M, h]; the result is [n] or [n, h], zero where no
    index points. One flat np.bincount over index * h + column, so every
    bin adds its terms in input order and reruns are bit-identical.
    """
    index = np.asarray(index, dtype=np.intp)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    h = values.shape[1]
    flat = (index[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * h).reshape(n, h)


def sorted_unique(a) -> np.ndarray:
    """np.unique(a) by one sort and a neighbour mask, not numpy 2.x's slower integer hashing."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))[: len(a)]]


@contextmanager
def atomic_open(path):
    """Binary file handle on `<path>.tmp`, renamed over `path` on success
    and removed on failure, so a failed write leaves any earlier file
    intact. The directory is made here, at the first write, so a command
    that fails before writing leaves no empty output directory behind."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    """UTF-8 `text` written through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def write_tensor_file(path, magic: str, header: tuple, tensors) -> None:
    """ASCII header line `magic n1 n2 ...`, then every tensor as row-major
    little-endian float64, written through atomic_open."""
    line = " ".join([magic, *(str(int(n)) for n in header)]) + "\n"
    with atomic_open(path) as fh:
        fh.write(line.encode("ascii"))
        for t in tensors:
            fh.write(np.ascontiguousarray(t, dtype="<f8"))  # the array's own buffer, no bytes copy


def read_tensor_file(path, magic: str, n_header: int, shapes):
    """Inverse of write_tensor_file. `shapes(*header)` gives the tensor
    shapes in file order. The payload size those shapes imply is checked
    against the file size before any tensor is read. Returns (header
    integers, tensors); every error names the file. Each tensor is read
    straight into its own array, with no intermediate bytes copy."""
    path = Path(path)
    with open(path, "rb") as fh:
        fields = fh.readline().decode("ascii", errors="replace").split()
        if len(fields) != n_header + 1 or fields[0] != magic:
            raise ValueError(f"{path}: not a {magic} checkpoint")
        header = [int(x) if x.isdigit() else -1 for x in fields[1:]]
        if min(header) < 0:
            raise ValueError(f"{path}: malformed checkpoint header")
        shape_list = shapes(*header)
        n_bytes = [math.prod(shape) * 8 for shape in shape_list]  # Python ints: no overflow
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < sum(n_bytes):
            raise ValueError(f"{path}: truncated checkpoint")
        if payload > sum(n_bytes):
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
        tensors = []
        for shape, n in zip(shape_list, n_bytes):
            try:  # numpy refuses a zero-size shape whose other sides are too big
                t = np.empty(shape, dtype="<f8")
            except ValueError:
                raise ValueError(f"{path}: malformed checkpoint header") from None
            if fh.readinto(t) != n:  # the file shrank after the size check
                raise ValueError(f"{path}: truncated checkpoint")
            tensors.append(t.astype(np.float64, copy=False))
    return header, tensors
