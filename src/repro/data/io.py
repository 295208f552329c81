"""Reading and writing uncertain relations (CSV, JSON-lines, columns).

The on-disk CSV schema is ``key, <attr_0 … attr_{d-1}>, probability``
with a header row naming the attribute columns; JSONL carries one
``{"key": …, "values": […], "probability": …}`` object per line —
the same shape :func:`repro.net.message.encode_tuple` puts on the
wire.  Both formats round-trip exactly (values are written with
``repr`` precision).

For partitions too large to pass through per-tuple Python objects
(n=10⁵ and beyond), a third format stores a
relation as a *column directory*: raw row-major binary files for
values / probabilities / keys plus a ``meta.json`` sidecar.  It is
written chunk by chunk (:class:`ColumnWriter` / :func:`write_columns`)
so construction is O(chunk) resident, and read back as numpy memmaps
(:func:`open_columns`) that enter the kernel layer zero-copy via
:meth:`repro.core.kernels.ColumnStore.from_arrays`.  Values may be
float32 or float64; probabilities are always float64 (they feed
IEEE-exact Eq.-9 products), keys are int64.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from types import TracebackType
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..core.kernels import ColumnStore
from ..core.tuples import UncertainTuple, validate_database

__all__ = [
    "save_tuples_csv",
    "load_tuples_csv",
    "save_tuples_jsonl",
    "load_tuples_jsonl",
    "save_tuples",
    "load_tuples",
    "ColumnWriter",
    "write_columns",
    "save_columns",
    "open_columns",
]

PathLike = Union[str, Path]

#: Column-directory format version (bump on layout changes).
COLUMNS_FORMAT_VERSION = 1

_VALUE_DTYPES = {"float32": np.float32, "float64": np.float64}


def save_tuples_csv(
    path: PathLike,
    tuples: Sequence[UncertainTuple],
    attribute_names: Optional[Sequence[str]] = None,
) -> None:
    """Write a relation as CSV with a ``key,…attrs…,probability`` header."""
    tuples = list(tuples)
    d = validate_database(tuples)
    if attribute_names is None:
        attribute_names = [f"attr_{j}" for j in range(d)]
    if len(attribute_names) != d:
        raise ValueError(
            f"{len(attribute_names)} attribute names for {d}-dimensional data"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", *attribute_names, "probability"])
        for t in tuples:
            writer.writerow([t.key, *(repr(v) for v in t.values), repr(t.probability)])


def load_tuples_csv(path: PathLike) -> List[UncertainTuple]:
    """Read a relation written by :func:`save_tuples_csv` (or matching it).

    The first column must be the key and the last the probability;
    everything between is an attribute.  A missing/NaN cell raises with
    the offending line number.
    """
    out: List[UncertainTuple] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return out
        if len(header) < 3:
            raise ValueError(
                f"{path}: need at least key, one attribute, and probability "
                f"columns, got header {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                out.append(
                    UncertainTuple(
                        key=int(row[0]),
                        values=tuple(float(v) for v in row[1:-1]),
                        probability=float(row[-1]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    validate_database(out)
    return out


def save_tuples_jsonl(path: PathLike, tuples: Iterable[UncertainTuple]) -> None:
    """Write one JSON object per tuple, wire-format compatible."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in tuples:
            fh.write(
                json.dumps(
                    {"key": t.key, "values": list(t.values), "probability": t.probability}
                )
            )
            fh.write("\n")


def load_tuples_jsonl(path: PathLike) -> List[UncertainTuple]:
    """Read a JSONL relation written by :func:`save_tuples_jsonl`."""
    out: List[UncertainTuple] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                out.append(
                    UncertainTuple(
                        key=int(record["key"]),
                        values=tuple(float(v) for v in record["values"]),
                        probability=float(record["probability"]),
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    validate_database(out)
    return out


def save_tuples(path: PathLike, tuples: Sequence[UncertainTuple]) -> None:
    """Dispatch on the file suffix (``.csv`` or ``.jsonl``/``.ndjson``)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        save_tuples_csv(path, tuples)
    elif suffix in (".jsonl", ".ndjson"):
        save_tuples_jsonl(path, tuples)
    else:
        raise ValueError(f"unsupported relation format {suffix!r}; use .csv or .jsonl")


def load_tuples(path: PathLike) -> List[UncertainTuple]:
    """Dispatch on the file suffix (``.csv`` or ``.jsonl``/``.ndjson``)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return load_tuples_csv(path)
    if suffix in (".jsonl", ".ndjson"):
        return load_tuples_jsonl(path)
    raise ValueError(f"unsupported relation format {suffix!r}; use .csv or .jsonl")


# ----------------------------------------------------------------------
# column directories (memory-mapped relations)
# ----------------------------------------------------------------------


class ColumnWriter:
    """Chunked writer for a column directory.

    Appends ``(values, probabilities, keys)`` array chunks to the raw
    column files and stamps ``meta.json`` on :meth:`close` (or context
    exit), so a crashed write never looks like a complete relation —
    :func:`open_columns` requires the sidecar.

    Only one chunk is resident at a time; total memory is O(chunk), not
    O(n).  Values are cast to the directory's value dtype; float64
    inputs written to a float32 directory lose precision explicitly
    (the caller chose the dtype), never silently on read.
    """

    def __init__(
        self,
        path: PathLike,
        dimensionality: int,
        value_dtype: str = "float64",
    ) -> None:
        if value_dtype not in _VALUE_DTYPES:
            raise ValueError(
                f"value_dtype must be one of {sorted(_VALUE_DTYPES)}, got {value_dtype!r}"
            )
        if dimensionality < 1:
            raise ValueError(f"dimensionality must be >= 1, got {dimensionality}")
        self.path = Path(path)
        self.dimensionality = int(dimensionality)
        self.value_dtype = value_dtype
        self.count = 0
        self._closed = False
        self.path.mkdir(parents=True, exist_ok=True)
        self._values = open(self.path / "values.bin", "wb")
        self._probs = open(self.path / "probabilities.bin", "wb")
        self._keys = open(self.path / "keys.bin", "wb")

    def append(
        self,
        values: np.ndarray,
        probabilities: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> None:
        """Write one chunk; ``keys=None`` auto-numbers from the row count."""
        if self._closed:
            raise ValueError("writer is closed")
        vals = np.ascontiguousarray(values, dtype=_VALUE_DTYPES[self.value_dtype])
        if vals.ndim != 2 or vals.shape[1] != self.dimensionality:
            raise ValueError(
                f"chunk shape {vals.shape} does not match dimensionality "
                f"{self.dimensionality}"
            )
        probs = np.ascontiguousarray(probabilities, dtype=np.float64)
        if probs.shape != (vals.shape[0],):
            raise ValueError(
                f"chunk has {vals.shape[0]} rows but "
                f"{probs.shape[0] if probs.ndim else 'scalar'} probabilities"
            )
        if keys is None:
            key_arr = np.arange(
                self.count, self.count + vals.shape[0], dtype=np.int64
            )
        else:
            key_arr = np.ascontiguousarray(keys, dtype=np.int64)
            if key_arr.shape != (vals.shape[0],):
                raise ValueError(
                    f"chunk has {vals.shape[0]} rows but {key_arr.shape[0]} keys"
                )
        self._values.write(vals.tobytes())
        self._probs.write(probs.tobytes())
        self._keys.write(key_arr.tobytes())
        self.count += vals.shape[0]

    def close(self) -> None:
        """Flush the columns and stamp the ``meta.json`` sidecar."""
        if self._closed:
            return
        self._closed = True
        self._values.close()
        self._probs.close()
        self._keys.close()
        meta = {
            "version": COLUMNS_FORMAT_VERSION,
            "count": self.count,
            "dimensionality": self.dimensionality,
            "value_dtype": self.value_dtype,
        }
        with open(self.path / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.write("\n")

    def __enter__(self) -> "ColumnWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        else:  # leave the directory visibly incomplete (no meta.json)
            self._closed = True
            self._values.close()
            self._probs.close()
            self._keys.close()


def write_columns(
    path: PathLike,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    dimensionality: int,
    value_dtype: str = "float64",
) -> int:
    """Stream ``(values, probabilities, keys)`` chunks into a directory.

    Returns the total row count.  ``keys`` may be ``None`` per chunk to
    auto-number rows sequentially.
    """
    with ColumnWriter(path, dimensionality, value_dtype=value_dtype) as writer:
        for values, probabilities, keys in chunks:
            writer.append(values, probabilities, keys)
        total = writer.count
    return total


def save_columns(
    path: PathLike,
    tuples: Sequence[UncertainTuple],
    value_dtype: str = "float64",
    chunk_size: int = 65536,
) -> int:
    """Write an in-memory relation as a column directory (convenience)."""
    tuples = list(tuples)
    d = validate_database(tuples)
    if not tuples:
        raise ValueError("cannot write an empty column directory")

    def _chunks() -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        for start in range(0, len(tuples), chunk_size):
            part = tuples[start : start + chunk_size]
            yield (
                np.array([t.values for t in part], dtype=np.float64),
                np.array([t.probability for t in part], dtype=np.float64),
                np.array([t.key for t in part], dtype=np.int64),
            )

    return write_columns(path, _chunks(), d, value_dtype=value_dtype)


def open_columns(path: PathLike, mmap: bool = True) -> ColumnStore:
    """Open a column directory as a :class:`ColumnStore`.

    With ``mmap=True`` (default) the columns are ``np.memmap`` views —
    opening a million-row relation touches no row data until a kernel
    reads it.  ``mmap=False`` loads plain in-RAM arrays instead.  The
    store's coordinates are taken as already canonical (min-space);
    apply preferences before writing.
    """
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(
            f"{root}: not a column directory (missing meta.json — "
            "incomplete write?)"
        )
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    version = meta.get("version")
    if version != COLUMNS_FORMAT_VERSION:
        raise ValueError(
            f"{root}: unsupported column-directory version {version!r}"
        )
    n = int(meta["count"])
    d = int(meta["dimensionality"])
    value_dtype = _VALUE_DTYPES[str(meta["value_dtype"])]
    values: np.ndarray
    probabilities: np.ndarray
    keys: np.ndarray
    if mmap:
        values = np.memmap(root / "values.bin", dtype=value_dtype, mode="r", shape=(n, d))
        probabilities = np.memmap(
            root / "probabilities.bin", dtype=np.float64, mode="r", shape=(n,)
        )
        keys = np.memmap(root / "keys.bin", dtype=np.int64, mode="r", shape=(n,))
    else:
        values = np.fromfile(root / "values.bin", dtype=value_dtype).reshape(n, d)
        probabilities = np.fromfile(root / "probabilities.bin", dtype=np.float64)
        keys = np.fromfile(root / "keys.bin", dtype=np.int64)
    return ColumnStore.from_arrays(values, probabilities, keys=keys)
