"""Reading and writing uncertain relations (CSV, JSON-lines).

The on-disk CSV schema is ``key, <attr_0 … attr_{d-1}>, probability``
with a header row naming the attribute columns; JSONL carries one
``{"key": …, "values": […], "probability": …}`` object per line —
the same shape :func:`repro.net.message.encode_tuple` puts on the
wire.  Both formats round-trip exactly (values are written with
``repr`` precision).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from ..core.tuples import UncertainTuple, validate_database

__all__ = [
    "save_tuples_csv",
    "load_tuples_csv",
    "save_tuples_jsonl",
    "load_tuples_jsonl",
    "save_tuples",
    "load_tuples",
]

PathLike = Union[str, Path]


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

