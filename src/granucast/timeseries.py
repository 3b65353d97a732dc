"""Wind-speed series ingestion, gap imputation and splitting.

Input format is a two-column CSV with header ``timestamp,wind_speed``.
Timestamps are integer epoch seconds or ISO-8601 strings, and must be
strictly increasing. The form is detected per value: text that ``int()``
accepts is epoch seconds (so ``20230101`` is a second count, not a date);
anything else is read by ``datetime.fromisoformat``, and an ISO string
without an offset is UTC. An empty wind_speed field marks a gap; NaN and
infinite readings are rejected, so NaN is the only record of a gap.

Rows are numbered as in the file: the header is row 1, and blank lines keep
their numbers although they hold no sample. Each row is checked whole as it
is read, so the fault reported, whatever its kind, is the first in file
order; within a row, timestamp faults (parse, range, order) come first. A
byte that is not UTF-8 is reported as such, as a fault of the row holding it.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import GranucastError


class MalformedRow(GranucastError):
    pass


class NonMonotoneTimestamps(GranucastError):
    pass


class EmptyFile(GranucastError):
    pass


class BoundaryGap(GranucastError):
    pass


class AllMissing(GranucastError):
    pass


class SeriesTooShort(GranucastError):
    pass


class TooFewItems(GranucastError):
    pass


@dataclass(frozen=True)
class RawSeries:
    """Series as read from disk, gaps still present: a gap is a NaN in
    ``values`` (no reading is NaN), and timestamps are strictly increasing
    epoch seconds."""

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise MalformedRow("timestamps and values must have equal length")
        # a comparison, not a difference: no int64 temporary, and no wrap for
        # timestamps more than 2**63 apart
        increases = self.timestamps[1:] > self.timestamps[:-1]
        if not increases.all():
            bad = int(np.argmin(increases)) + 1
            raise NonMonotoneTimestamps(f"timestamp of sample {bad} does not increase")

    @property
    def gap_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        for frac in (self.train_frac, self.val_frac, self.test_frac):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"split fraction {frac} outside (0, 1)")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"split fractions sum to {total}, expected 1")


def _parse_timestamp(text: str, path: Path, row: int) -> int:
    text = text.strip()
    # int() fails on any "T" or ":", and on a "-" other than a leading sign,
    # so ISO text skips an attempt that can only raise
    if "T" not in text and ":" not in text and "-" not in text[1:]:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise MalformedRow(f"{path}: row {row}: unparseable timestamp {text!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def is_utf8(text: str) -> bool:
    """Whether surrogateescape-decoded ``text`` came from UTF-8 (no lone surrogate)."""
    return re.search("[\udc80-\udcff]", text) is None


def load_series(path: str | Path) -> RawSeries:
    """Read a ``timestamp,wind_speed`` CSV into a RawSeries.

    Empty wind_speed fields become gaps. Raises EmptyFile when there are no
    data rows, MalformedRow for parse failures (text that is not UTF-8 and
    epoch values outside int64 included) and NonMonotoneTimestamps when
    timestamps do not strictly increase. Every row-level error names the
    file and the file row.
    """
    path = Path(path)
    # typed buffers: a decade of rows is two flat arrays, not boxed objects
    timestamps = array("q")
    values = array("d")
    previous = -math.inf
    # a byte that is not UTF-8 decodes to a lone surrogate, which fails every
    # parse of its row; that row's fault is then reported as the bad byte
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            row_number, row = 1, next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: file is empty") from None
        try:
            if [column.strip().lower() for column in row] != ["timestamp", "wind_speed"]:
                raise MalformedRow(f"{path}: expected header 'timestamp,wind_speed', got {row!r}")
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise MalformedRow(
                        f"{path}: row {row_number} has {len(row)} fields, expected 2"
                    )
                try:
                    timestamps.append(stamp := _parse_timestamp(row[0], path, row_number))
                except OverflowError:
                    raise MalformedRow(
                        f"{path}: row {row_number}: timestamp out of range"
                    ) from None
                if stamp <= previous:
                    raise NonMonotoneTimestamps(
                        f"{path}: row {row_number}: timestamp does not increase"
                    )
                previous = stamp
                raw_value = row[1].strip()
                if raw_value == "":
                    values.append(math.nan)
                else:
                    try:
                        value = float(raw_value)
                    except ValueError:
                        raise MalformedRow(
                            f"{path}: row {row_number}: unparseable wind_speed {raw_value!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise MalformedRow(f"{path}: row {row_number}: NaN or infinite value")
                    values.append(value)
        except (MalformedRow, NonMonotoneTimestamps):
            if not is_utf8("".join(row)):
                raise MalformedRow(f"{path}: row {row_number}: not UTF-8 text") from None
            raise
    if not timestamps:
        raise EmptyFile(f"{path}: no data rows")
    return RawSeries(
        timestamps=np.frombuffer(timestamps, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64),
    )


def interpolate_gaps(raw: RawSeries) -> np.ndarray:
    """The float64 values with gaps filled by straight lines between the
    nearest observed neighbours.

    Interpolation weights use index distance (the cadence is nominally
    uniform). Leading or trailing gaps are rejected rather than extrapolated.
    Only gap samples are computed, each from the two observed samples that
    bracket its run, so the result is bit-identical to linear interpolation
    over the whole series at the cost of one copy of the values.
    """
    gaps = raw.gap_mask
    if gaps.all():
        raise AllMissing("series has no observed values")
    if gaps[0] or gaps[-1]:
        raise BoundaryGap("first and last values must be observed")
    filled = raw.values.astype(np.float64)
    missing = np.flatnonzero(gaps)
    if len(missing):
        # knots: each run's left and right observed neighbour, in order; two
        # runs split by one observed sample share it, so drop the repeat
        knots = np.column_stack(
            (missing[~gaps[missing - 1]] - 1, missing[~gaps[missing + 1]] + 1)
        ).ravel()
        knots = knots[np.append(True, knots[1:] != knots[:-1])]
        filled[missing] = np.interp(missing, knots, filled[knots])
    return filled


def chrono_split(items, spec: SplitSpec = SplitSpec()):
    """Split an ordered collection into contiguous train/validation/test parts.

    Boundaries follow the cumulative-floor rule: train ends at
    ``floor(train_frac * n)``, validation at ``floor((train_frac+val_frac) * n)``.
    """
    n = len(items)
    if n < 5:
        raise TooFewItems(f"need at least 5 items to split, got {n}")
    train_end = math.floor(spec.train_frac * n)
    val_end = math.floor((spec.train_frac + spec.val_frac) * n)
    return items[:train_end], items[train_end:val_end], items[val_end:]


def kfold_split(items, k: int) -> list[np.ndarray]:
    """The index arrays of k contiguous test folds; each fold's train part
    is everything else.

    Fold sizes differ by at most one; the remainder goes to the earliest
    folds. Folds are contiguous in time (no shuffling) to avoid leakage.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = len(items)
    if n < k:
        raise TooFewItems(f"need at least {k} items for {k} folds, got {n}")
    return np.array_split(np.arange(n), k)
