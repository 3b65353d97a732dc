import re
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from granucast.granulation import granulate_series
from granucast.timeseries import (
    AllMissing,
    BoundaryGap,
    EmptyFile,
    MalformedRow,
    NonMonotoneTimestamps,
    RawSeries,
    SeriesTooShort,
    SplitSpec,
    TooFewItems,
    chrono_split,
    interpolate_gaps,
    kfold_split,
    load_series,
)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSeries:
    def test_gap_row_sets_mask(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,\n1200,7.0\n")
        raw = load_series(path)
        assert raw.gap_mask.tolist() == [False, True, False]
        assert raw.values[0] == 5.0 and raw.values[2] == 7.0
        assert np.isnan(raw.values[1])

    def test_all_present_has_no_gaps(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,6.0\n")
        assert not load_series(path).gap_mask.any()

    def test_iso_timestamps(self, tmp_path):
        # with Z, with offsets and without one (read as UTC)
        path = write(
            tmp_path,
            "timestamp,wind_speed\n"
            "2023-01-01T00:00:00+00:00,5.0\n"
            "2023-01-01T00:10:00Z,6.0\n"
            "2023-01-01T01:20:00+01:00,7.0\n"
            "2023-01-01T00:30:00,8.0\n"
            "2022-12-31T19:40:00-05:00,9.0\n",
        )
        start = int(datetime(2023, 1, 1, tzinfo=timezone.utc).timestamp())
        assert load_series(path).timestamps.tolist() == [start + 600 * i for i in range(5)]

    def test_non_monotone_rejected(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n600,5.0\n0,6.0\n")
        with pytest.raises(NonMonotoneTimestamps):
            load_series(path)

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_series(write(tmp_path, "timestamp,wind_speed\n"))

    def test_bad_value_names_row(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,abc\n")
        with pytest.raises(MalformedRow, match="row 3"):
            load_series(path)

    def test_naive_iso_is_utc_whatever_the_host_zone(self, tmp_path, monkeypatch):
        # 10-minute readings across 2023-03-12 02:00, the hour New York skips
        start = datetime(2023, 3, 12)
        rows = [f"{(start + timedelta(minutes=10 * i)).isoformat()},5.0" for i in range(24)]
        path = write(tmp_path, "timestamp,wind_speed\n" + "\n".join(rows) + "\n")
        monkeypatch.setenv("TZ", "America/New_York")
        time.tzset()
        try:
            raw = load_series(path)
        finally:
            monkeypatch.undo()
            time.tzset()
        assert raw.timestamps[0] == int(start.replace(tzinfo=timezone.utc).timestamp())
        assert np.all(np.diff(raw.timestamps) == 600)

    @pytest.mark.parametrize("reading", ["nan", "inf", "-inf"])
    def test_literal_nan_rejected(self, tmp_path, reading):
        path = write(tmp_path, f"timestamp,wind_speed\n0,5.0\n600,{reading}\n")
        with pytest.raises(MalformedRow) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3: NaN or infinite value"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "absent.csv")

    def test_first_fault_in_file_order_wins(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,abc\nzz,6.0\n")
        with pytest.raises(MalformedRow, match=re.escape("row 3: unparseable wind_speed 'abc'")):
            load_series(path)

    def test_timestamp_fault_before_value_fault_on_one_row(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\nzz,abc\n")
        with pytest.raises(MalformedRow, match=re.escape("row 3: unparseable timestamp 'zz'")):
            load_series(path)

    def test_unparseable_timestamp_message(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\nzz,6.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3: unparseable timestamp 'zz'"

    def test_field_count_message(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,6.0,7.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3 has 3 fields, expected 2"

    def test_blank_lines_keep_their_row_numbers(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n\n\n600,abc\n")
        with pytest.raises(MalformedRow, match=re.escape("row 5: unparseable wind_speed")):
            load_series(path)
        raw = load_series(write(tmp_path, "timestamp,wind_speed\n\n0,5.0\n\n600,6.0\n\n"))
        assert raw.timestamps.tolist() == [0, 600]

    def test_non_monotone_message_names_the_file_row(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n600,5.0\n\n0,6.0\n1200,7.0\n")
        with pytest.raises(NonMonotoneTimestamps) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 4: timestamp does not increase"

    def test_an_order_fault_beats_a_later_parse_fault(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n600,5.0\n0,6.0\n1200,abc\n")
        with pytest.raises(NonMonotoneTimestamps) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3: timestamp does not increase"

    def test_a_repeated_timestamp_does_not_increase(self, tmp_path):
        path = write(tmp_path, "timestamp,wind_speed\n0,5.0\n600,6.0\n600,7.0\n")
        with pytest.raises(NonMonotoneTimestamps, match=re.escape("row 4: timestamp does not")):
            load_series(path)

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'timestamp,wind_speed\n"0","5.5"\n"600",""\n1200,"7"\n')
        raw = load_series(path)
        assert raw.timestamps.tolist() == [0, 600, 1200]
        assert raw.gap_mask.tolist() == [False, True, False]
        assert raw.values[0] == 5.5 and raw.values[2] == 7.0
        # a quoted comma stays inside its field
        path = write(tmp_path, 'timestamp,wind_speed\n"0,600",5.0\n')
        with pytest.raises(MalformedRow, match=re.escape("row 2: unparseable timestamp '0,600'")):
            load_series(path)

    def test_integer_text_reads_as_epoch_seconds(self, tmp_path):
        # "20230101" is also an ISO basic-format date; integers come first
        path = write(tmp_path, "timestamp,wind_speed\n-120,5.0\n 0 ,5.5\n20230101,6.0\n")
        raw = load_series(path)
        assert raw.timestamps.tolist() == [-120, 0, 20230101]
        assert raw.timestamps.dtype == np.int64

    def test_timestamps_more_than_2_pow_63_apart_load(self, tmp_path):
        # their int64 difference would wrap negative
        path = write(
            tmp_path,
            "timestamp,wind_speed\n-9000000000000000000,1.0\n9000000000000000000,2.0\n",
        )
        raw = load_series(path)
        assert raw.timestamps.tolist() == [-9_000_000_000_000_000_000, 9_000_000_000_000_000_000]
        assert raw.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("stamp", ["99999999999999999999", "-9223372036854775809"])
    def test_epoch_outside_int64_is_malformed(self, tmp_path, stamp):
        path = write(tmp_path, f"timestamp,wind_speed\n0,5.0\n{stamp},abc\n")
        with pytest.raises(MalformedRow) as exc:
            load_series(path)
        assert str(exc.value) == f"{path}: row 3: timestamp out of range"

    @given(
        start=st.integers(-(10**10), 10**10),
        rows=st.lists(
            st.tuples(
                st.integers(1, 10**6),
                st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
                st.sampled_from(["epoch", "Z", "+00:00", "naive", "+05:30", "-08:00"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_round_trip_of_mixed_text(self, tmp_path_factory, start, rows):
        stamps = start + np.cumsum([step for step, *_ in rows])
        lines = ["timestamp,wind_speed"]
        for stamp, (_, value, form, blank_before) in zip(stamps.tolist(), rows):
            if blank_before:
                lines.append("")
            moment = datetime.fromtimestamp(stamp, tz=timezone.utc)
            if form == "epoch":
                text = str(stamp)
            elif form == "Z":
                text = moment.replace(tzinfo=None).isoformat() + "Z"
            elif form == "naive":
                text = moment.replace(tzinfo=None).isoformat()
            else:
                sign = 1 if form[0] == "+" else -1
                offset = timedelta(hours=int(form[1:3]), minutes=int(form[4:]))
                text = moment.astimezone(timezone(sign * offset)).isoformat()
            lines.append(f"{text},{'' if value is None else repr(value)}")
        path = tmp_path_factory.mktemp("round") / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        raw = load_series(path)
        values = np.array([np.nan if value is None else value for _, value, *_ in rows])
        assert raw.timestamps.dtype == np.int64
        assert raw.values.dtype == np.float64
        assert raw.gap_mask.dtype == np.bool_
        np.testing.assert_array_equal(raw.timestamps, stamps)
        np.testing.assert_array_equal(raw.values, values)
        np.testing.assert_array_equal(raw.gap_mask, np.isnan(values))

    def test_bytes_that_are_not_utf8_are_malformed(self, tmp_path):
        # the bad row lies past the first block the text reader decodes
        rows = "".join(f"{600 * i},5.0\n" for i in range(2000))
        path = tmp_path / "series.csv"
        path.write_bytes(f"timestamp,wind_speed\n{rows}".encode() + b"1200000,\xff\xfe\n")
        with pytest.raises(MalformedRow, match=f"{path}: row 2002: not UTF-8 text"):
            load_series(path)

    def test_an_earlier_row_fault_beats_a_later_bad_byte(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"timestamp,wind_speed\n0,5.0\n600,abc\n1200,\xff\n")
        with pytest.raises(MalformedRow, match=f"{path}: row 3: unparseable wind_speed 'abc'"):
            load_series(path)

    @pytest.mark.parametrize(
        "text, row",
        [
            (b"timestamp,wind_speed\n0,5.0\n\n600,\xff\n1200,6.0\n", 4),
            (b"timestamp,wind_speed\r\n0,5.0\r\n600,5\xe9\r\n", 3),
            (b"timestamp,wind_\xffspeed\n0,5.0\n", 1),
            (b"timestamp,wind_speed\n0,5.0\n\xff\n", 3),
            # the row's timestamp does not increase, but the row holds a bad byte
            (b"timestamp,wind_speed\n600,5.0\n0,\xff\n", 3),
        ],
    )
    def test_a_lone_bad_byte_names_its_row(self, tmp_path, text, row):
        path = tmp_path / "series.csv"
        path.write_bytes(text)
        with pytest.raises(MalformedRow, match=f"{path}: row {row}: not UTF-8 text$"):
            load_series(path)


def long_gappy_series():
    """200,000 ten-minute timestamps and readings, 1% of them isolated interior gaps."""
    n = 200_000
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 25.0, n)
    values[rng.choice(np.arange(1, n - 1), n // 100, replace=False)] = np.nan
    return np.arange(n, dtype=np.int64) * 600, values


def traced_peak(call):
    """Peak bytes numpy and Python allocate while ``call()`` runs, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_series_interpolation(raw):
    """The reference rule: interpolate every index over all observed
    samples, then copy the observed samples back."""
    observed = ~raw.gap_mask
    indices = np.arange(len(raw))
    filled = np.interp(indices, indices[observed], raw.values[observed])
    filled[observed] = raw.values[observed]
    return filled


@st.composite
def gappy_values(draw):
    """Interior gap runs of 1-20 samples between observed stretches of 1-4
    (so runs split by one observed sample and runs from index 1 or to index
    n-2 are common), on values with many equal neighbours, scaled to
    magnitudes from 1e-3 to 1e6."""
    n = draw(st.integers(3, 200))
    mask = []
    while len(mask) < n - 1:
        mask += [False] * draw(st.integers(1, 4)) + [True] * draw(st.integers(1, 20))
    mask = np.array(mask[: n - 1] + [False])
    scale = draw(st.floats(1e-3, 1e6))
    units = draw(
        st.lists(
            st.integers(-3, 3) | st.floats(-1, 1, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    values = np.array(units, dtype=np.float64) * scale
    values[mask] = np.nan
    return values


class TestRawSeries:
    def test_a_gap_is_nan(self):
        values = np.array([5.0, np.nan, 7.0, np.nan])
        raw = RawSeries(timestamps=np.arange(4, dtype=np.int64) * 600, values=values)
        np.testing.assert_array_equal(raw.gap_mask, np.isnan(values))

    def test_unequal_lengths_are_malformed(self):
        with pytest.raises(MalformedRow, match="equal length"):
            RawSeries(timestamps=np.array([0, 600], dtype=np.int64), values=np.array([5.0]))

    def test_order_fault_names_the_sample(self):
        with pytest.raises(NonMonotoneTimestamps, match="^timestamp of sample 2 does not increase$"):
            RawSeries(timestamps=np.array([0, 600, 600]), values=np.array([5.0, 6.0, 7.0]))

    def test_timestamps_more_than_2_pow_63_apart_increase(self):
        stamps = np.array([-9_000_000_000_000_000_000, 9_000_000_000_000_000_000])
        assert len(RawSeries(timestamps=stamps, values=np.array([1.0, 2.0]))) == 2

    def test_order_check_needs_no_copy_of_the_timestamps(self):
        timestamps, values = long_gappy_series()
        peak = traced_peak(lambda: RawSeries(timestamps=timestamps, values=values))
        assert peak < 0.5 * timestamps.nbytes


class TestInterpolateGaps:
    def make_raw(self, values):
        arr = np.array([np.nan if v is None else float(v) for v in values])
        return RawSeries(
            timestamps=np.arange(len(arr), dtype=np.int64) * 600,
            values=arr,
        )

    def test_single_gap_is_mean_of_neighbors(self):
        values = interpolate_gaps(self.make_raw([4.0, None, 6.0]))
        assert values.dtype == np.float64
        assert values.tolist() == [4.0, 5.0, 6.0]

    def test_double_gap_lies_on_line(self):
        values = interpolate_gaps(self.make_raw([3.0, None, None, 9.0]))
        assert values.tolist() == [3.0, 5.0, 7.0, 9.0]

    def test_leading_gap_rejected(self):
        with pytest.raises(BoundaryGap):
            interpolate_gaps(self.make_raw([None, 5.0, 6.0]))

    def test_trailing_gap_rejected(self):
        with pytest.raises(BoundaryGap):
            interpolate_gaps(self.make_raw([5.0, 6.0, None]))

    def test_all_missing_needs_two_points(self):
        with pytest.raises(AllMissing):
            interpolate_gaps(
                RawSeries(
                    timestamps=np.array([0, 600], dtype=np.int64),
                    values=np.array([np.nan, np.nan]),
                )
            )

    @given(
        values=npst.arrays(
            np.float64,
            st.integers(3, 30),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_idempotent_on_gap_free_series(self, values):
        raw = RawSeries(
            timestamps=np.arange(len(values), dtype=np.int64),
            values=values.copy(),
        )
        assert np.array_equal(interpolate_gaps(raw), values)

    @given(
        values=gappy_values()
        | npst.arrays(np.int64, st.integers(3, 200), elements=st.integers(-(10**6), 10**6))
    )
    def test_bit_identical_to_whole_series_interpolation(self, values):
        raw = RawSeries(timestamps=np.arange(len(values), dtype=np.int64), values=values)
        filled = interpolate_gaps(raw)
        assert filled.dtype == np.float64
        np.testing.assert_array_equal(
            filled.view(np.int64), whole_series_interpolation(raw).view(np.int64)
        )

    def test_filling_holds_little_more_than_one_copy_of_the_values(self):
        timestamps, values = long_gappy_series()
        raw = RawSeries(timestamps=timestamps, values=values)
        assert traced_peak(lambda: interpolate_gaps(raw)) < 1.5 * values.nbytes

    @given(data=st.data())
    def test_imputed_values_bounded_by_bracketing_observations(self, data):
        n = data.draw(st.integers(4, 20))
        values = data.draw(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)
        )
        gap_positions = data.draw(
            st.sets(st.integers(1, n - 2), min_size=1, max_size=n - 2)
        )
        arr = np.array(values)
        arr[list(gap_positions)] = np.nan
        raw = RawSeries(
            timestamps=np.arange(n, dtype=np.int64),
            values=arr,
        )
        filled = interpolate_gaps(raw)
        observed = np.flatnonzero(~raw.gap_mask)
        for i in sorted(gap_positions):
            left = observed[observed < i].max()
            right = observed[observed > i].min()
            lo = min(arr[left], arr[right])
            hi = max(arr[left], arr[right])
            assert lo - 1e-9 <= filled[i] <= hi + 1e-9


def make_series(n):
    return np.arange(n, dtype=np.float64)


class TestPartitionWindows:
    """granulate_series tiles a series with floor(n / w) windows; the
    series values are their indices, so each row's (low, up) are its
    window's first and last index."""

    def test_exact_tiling(self):
        rows = granulate_series(make_series(108), 36)
        assert rows[:, [0, 2]].tolist() == [[0, 35], [36, 71], [72, 107]]

    def test_remainder_dropped(self):
        rows = granulate_series(make_series(100), 36)
        assert len(rows) == 2
        assert rows[-1, [0, 2]].tolist() == [36, 71]

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            granulate_series(make_series(10), 36)

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_window_size_below_two(self, size):
        with pytest.raises(ValueError, match="window_size"):
            granulate_series(make_series(10), size)

    @given(n=st.integers(4, 500), size=st.integers(2, 60))
    def test_windows_tile_a_prefix(self, n, size):
        if n < size:
            return
        rows = granulate_series(make_series(n), size)
        starts = np.arange(n // size) * size
        np.testing.assert_array_equal(rows[:, 0], starts)
        np.testing.assert_array_equal(rows[:, 2], starts + size - 1)


class TestChronoSplit:
    def test_round_numbers(self):
        parts = chrono_split(list(range(100)), SplitSpec())
        assert tuple(map(len, parts)) == (60, 20, 20)

    def test_small_collection_floor(self):
        parts = chrono_split(list(range(10)), SplitSpec())
        assert tuple(map(len, parts)) == (6, 2, 2)

    def test_cumulative_floor_gives_test_the_remainder(self):
        parts = chrono_split(list(range(101)), SplitSpec())
        assert tuple(map(len, parts)) == (60, 20, 21)

    def test_too_few(self):
        with pytest.raises(TooFewItems):
            chrono_split([1, 2, 3, 4], SplitSpec())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_frac=0.7, val_frac=0.2, test_frac=0.2)

    @given(n=st.integers(5, 400))
    def test_partition_preserves_input(self, n):
        items = list(range(n))
        train, val, test = chrono_split(items, SplitSpec())
        assert train + val + test == items


class TestKfoldSplit:
    def test_even_folds(self):
        folds = kfold_split(list(range(10)), 5)
        assert [len(test) for test in folds] == [2, 2, 2, 2, 2]

    def test_remainder_goes_to_early_folds(self):
        folds = kfold_split(list(range(11)), 5)
        assert [len(test) for test in folds] == [3, 2, 2, 2, 2]

    def test_too_few(self):
        with pytest.raises(TooFewItems):
            kfold_split(list(range(4)), 5)

    @given(n=st.integers(5, 200), k=st.integers(2, 8))
    def test_test_folds_partition_index_set(self, n, k):
        if n < k:
            return
        folds = kfold_split(list(range(n)), k)
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(n))
        for test in folds:
            assert np.diff(test).tolist() == [1] * (len(test) - 1)
