"""Wind-speed series ingestion, gap imputation and splitting.

Input format is a two-column CSV with header ``timestamp,wind_speed``, which
may follow a UTF-8 byte-order mark. Timestamps are integer epoch seconds or
ISO-8601 strings, and must be strictly increasing. The form is detected per
value: text that ``int()`` accepts is epoch seconds (so ``20230101`` is a
second count, not a date); anything else is read by
``datetime.fromisoformat``, an ISO string without an offset is UTC, and a
fraction of a second is floored to the second before it. An empty
wind_speed field marks a gap; NaN and infinite readings are rejected, so
NaN is the only record of a gap.

Rows are numbered as in the file: the header is row 1, and blank lines keep
their numbers although they hold no sample. Each row is checked whole as it
is read, so the fault reported, whatever its kind, is the first in file
order; within a row, timestamp faults (parse, range, order) come first. A
byte that is not UTF-8 is reported as such, as a fault of the row holding it.

Two readers give one result, the same arrays bit for bit or the same
error. The block parser reads the file in blocks of ``_BLOCK`` bytes and
parses each with NumPy array operations, with no Python step per row. It
takes only a file it can prove valid: the header exactly, LF or CRLF line
ends, blank lines, and data lines that hold one comma and no quote, space
or other byte outside ``[0-9.eE+-:TZ]``. Each such line's timestamp is
``-?[0-9]{1,18}`` or ``YYYY-MM-DDTHH:MM:SS`` (naive, ``Z`` or ``±HH:MM``;
years 2-9998 and every field in range), its reading is empty or at most
``_WIDTH`` bytes of ``[0-9.eE+-]`` that cast to a finite float, and the
timestamps strictly increase. At the first block it cannot take, it hands
the whole file to the row loop, which reads any file row by row and words
every error.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain
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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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
    # exact floor: timestamp() goes through a float and int() truncates to 0
    return (stamp - _EPOCH) // timedelta(seconds=1)


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
    raw = _read_blocks(path)
    return _read_rows(path) if raw is None else raw


# bytes read and parsed at once; sets a batching width only
_BLOCK = 1 << 15
_BOM = b"\xef\xbb\xbf"
_HEADER = b"timestamp,wind_speed"
# the widest timestamp (an ISO stamp with an offset) and reading the block
# parser takes, and so the longest line
_STAMP = 25
_WIDTH = 32
_LINE = _STAMP + 1 + _WIDTH + 2
# every byte a line the block parser takes may hold
_TAKEN = b"0123456789.eE+-:TZ,\r\n"
_ISO = b"DDDD-DD-DDTDD:DD:DD"


def _stamp_bounds() -> np.ndarray:
    """The lowest and highest byte of each column of a NUL-padded stamp, in
    row ``kind * (_STAMP + 1) + length`` for kind 0 (unsigned epoch), 1
    (signed epoch) or 2 (ISO). A template's D is a digit and S a sign; a
    kind and length without one admits nothing."""
    templates = {(0, n): b"D" * n for n in range(1, 19)}
    templates |= {(1, n + 1): b"-" + b"D" * n for n in range(1, 19)}
    templates |= {(2, len(form)): form for form in (_ISO, _ISO + b"Z", _ISO + b"SDD:DD")}
    bounds = np.zeros((3, _STAMP + 1, 2, _STAMP), dtype=np.uint8)
    bounds[:, :, 0] = 255
    for (kind, length), template in templates.items():
        template = np.frombuffer(template.ljust(_STAMP, b"\0"), dtype=np.uint8)
        low, high = template.copy(), template.copy()
        low[template == ord("D")], high[template == ord("D")] = ord("0"), ord("9")
        # "+" to "-" holds a comma too, which no stamp field can hold
        low[template == ord("S")], high[template == ord("S")] = ord("+"), ord("-")
        bounds[kind, length] = low, high
    return bounds.reshape(-1, 2, _STAMP)


_STAMP_BOUNDS = _stamp_bounds()
# the columns of the tens digits of year/100, year%100, month, day, hour,
# minute, second, offset hours and offset minutes, and the range of each pair
_TENS = np.array([0, 2, 5, 8, 11, 14, 17, 20, 23])
_PAIR_LOW = np.array([0, 0, 1, 1, 0, 0, 0, 0, 0])
_PAIR_HIGH = np.array([99, 99, 12, 31, 23, 59, 59, 23, 59])
# whether each year 0-9999 is a leap year, and the days from 1970-01-01 to
# its January 1
_LEAP = np.zeros(10000, dtype=bool)
_LEAP[::4], _LEAP[::100], _LEAP[::400] = True, False, True
_NEW_YEAR = np.cumsum(365 + _LEAP) - (365 + _LEAP)
_NEW_YEAR -= _NEW_YEAR[1970]
# days in each month, and days of a common year before it, by month number
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_START = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS


def _read_blocks(path: Path) -> RawSeries | None:
    """The series as the block parser reads it, or None when the file holds
    anything it cannot prove valid (the module docstring lists what it takes)."""
    with path.open("rb") as fh:
        header = fh.readline(len(_BOM + _HEADER) + 2).removeprefix(_BOM)
        if header not in (_HEADER + b"\n", _HEADER + b"\r\n"):
            return None
        data = fh.tell()
        # every data row ends in a newline but perhaps the last
        capacity = 1 + sum(block.count(b"\n") for block in iter(partial(fh.read, _BLOCK), b""))
        fh.seek(data)
        timestamps = np.empty(capacity, dtype=np.int64)
        values = np.empty(capacity, dtype=np.float64)
        size, tail = 0, b""
        # a final newline ends a last line that lacks one
        for block in chain(iter(partial(fh.read, _BLOCK), b""), [b"\n"]):
            text = tail + block
            cut = text.rfind(b"\n") + 1
            text, tail = text[:cut], text[cut:]
            if len(tail) > _LINE:
                return None
            parsed = _parse_block(text)
            if parsed is None:
                return None
            stamps, readings = parsed
            if len(stamps) and size and stamps[0] <= timestamps[size - 1]:
                return None
            timestamps[size : size + len(stamps)] = stamps
            values[size : size + len(stamps)] = readings
            size += len(stamps)
    if not size:
        return None
    return RawSeries(timestamps=timestamps[:size], values=values[:size])


def _parse_block(text: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The timestamps and readings of whole lines, each ending in a newline,
    or None unless the block parser takes every line."""
    if text.translate(None, _TAKEN):
        return None
    # NUL padding: a field's window of bytes never runs past the buffer
    padded = text + bytes(_LINE)
    buf = np.frombuffer(padded, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends + 1))[:-1]
    crlf = buf[ends - 1] == ord("\r")
    if np.count_nonzero(crlf) != text.count(b"\r"):
        return None
    ends -= crlf
    filled = ends > starts
    starts, ends = starts[filled], ends[filled]
    commas = np.flatnonzero(buf == ord(","))
    # as many commas as lines, each inside its line: one comma a line
    if len(commas) != len(starts) or not ((starts <= commas) & (commas < ends)).all():
        return None
    if not len(starts):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    stamp_len, value_len = commas - starts, ends - commas - 1
    if stamp_len.max() > _STAMP or value_len.max() > _WIDTH:
        return None
    stamps = _parse_stamps(_fields(padded, starts, stamp_len, _STAMP), stamp_len)
    readings = _parse_readings(_fields(padded, commas + 1, value_len, value_len.max()), value_len)
    if stamps is None or readings is None or not (stamps[1:] > stamps[:-1]).all():
        return None
    return stamps, readings


def _fields(padded: bytes, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """A uint8 grid whose row i holds the ``lengths[i]`` bytes from
    ``starts[i]``, NUL-padded to ``width``."""
    # row j of the windows is the width bytes from byte j
    windows = np.ndarray((len(padded) - width + 1, width), np.uint8, padded, strides=(1, 1))
    grid = windows[starts]
    grid *= np.arange(width) < lengths[:, None]
    return grid


def _parse_stamps(grid: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of NUL-padded stamps, or None unless each is
    ``-?[0-9]{1,18}`` (so no int64 overflow) or an ISO form with its fields
    in range."""
    kind = np.where(grid[:, 4] == ord("-"), 2, grid[:, 0] == ord("-"))
    bounds = np.take(_STAMP_BOUNDS, kind * (_STAMP + 1) + length, axis=0)
    if not ((bounds[:, 0] <= grid) & (grid <= bounds[:, 1])).all():
        return None
    iso = kind == 2
    if iso.all():
        return _iso_seconds(grid)
    stamps = np.empty(len(grid), dtype=np.int64)
    stamps[~iso] = grid[~iso].view(f"S{_STAMP}")[:, 0].astype(np.int64)
    seconds = _iso_seconds(grid[iso])
    if seconds is None:
        return None
    stamps[iso] = seconds
    return stamps


def _iso_seconds(grid: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of stamps that fit an ISO template, or None unless
    every field is in range."""
    pairs = 10 * grid[:, _TENS].astype(np.int32) + grid[:, _TENS + 1] - 11 * ord("0")
    # a stamp without an offset reads as +00:00
    pairs[:, 7:] *= (grid[:, 22] == ord(":"))[:, None]
    year = 100 * pairs[:, 0] + pairs[:, 1]
    month, day, hour, minute, second, offset_hour, offset_minute = pairs[:, 2:].T
    leap = _LEAP[year]
    # years 2-9998 keep every offset within datetime's range
    if not (
        ((_PAIR_LOW <= pairs) & (pairs <= _PAIR_HIGH)).all()
        and ((2 <= year) & (year <= 9998)).all()
        and (day <= _MONTH_DAYS[month] + ((month == 2) & leap)).all()
    ):
        return None
    days = _NEW_YEAR[year] + _MONTH_START[month] + ((month > 2) & leap) + day - 1
    east = np.where(grid[:, 19] == ord("-"), -1, 1) * (3600 * offset_hour + 60 * offset_minute)
    return 86400 * days + 3600 * hour + 60 * minute + second - east


def _parse_readings(grid: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """NUL-padded readings as float64, NaN where empty, or None unless every
    other one is made of ``[0-9.eE+-]`` and casts to a finite float."""
    # the bytes the block parser takes that no float's text holds
    if ((grid == ord(":")) | (grid == ord("T")) | (grid == ord("Z"))).any():
        return None
    readings = np.full(len(grid), np.nan)
    present = length > 0
    if present.any():
        cells = grid[present].view(f"S{grid.shape[1]}")[:, 0]
        try:
            cast = cells.astype(np.float64)
        except ValueError:
            return None
        if not np.isfinite(cast).all():
            return None
        readings[present] = cast
    return readings


def _read_rows(path: Path) -> RawSeries:
    """The series as the row loop reads it: any file, row by row, raising
    the first fault in file order."""
    # typed buffers: a decade of rows is two flat arrays, not boxed objects
    timestamps = array("q")
    values = array("d")
    previous = -math.inf
    # a byte that is not UTF-8 decodes to a lone surrogate, which fails every
    # parse of its row; that row's fault is then reported as the bad byte;
    # utf-8-sig drops a byte-order mark before the header
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
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
