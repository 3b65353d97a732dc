import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granucast.granulation import InvalidGranule, granulate_series
from granucast.timeseries import SeriesTooShort


def series_of(values):
    return np.asarray(values, dtype=np.float64)


def granulate_window(values):
    """Reference granule of one window from scalar Python floats: (min,
    mean, max) with the mean clamped into [min, max] by ``min``/``max``."""
    values = np.asarray(values, dtype=np.float64)
    low, up = float(values.min()), float(values.max())
    return np.array([low, min(max(float(values.mean()), low), up), up])


def one_window(values):
    """The single granule of a series that is exactly one window long."""
    (row,) = granulate_series(series_of(values), len(values))
    return row.tolist()


class TestGranulateWindow:
    def test_min_mean_max(self):
        assert one_window([2.0, 4.0, 6.0]) == [2.0, 4.0, 6.0]

    def test_constant_window_degenerates(self):
        assert one_window([5.0, 5.0, 5.0]) == [5.0, 5.0, 5.0]

    @pytest.mark.parametrize("values", [np.full(36, 0.1), np.array([1.9, 1.9, 1.9])])
    def test_constant_window_whose_float_mean_rounds_outside(self, values):
        # Both float means land one ulp off the constant value.
        assert float(values.mean()) != values[0]
        v = float(values[0])
        assert one_window(values) == [v, v, v]

    def test_sampled_sinusoid(self):
        i = np.arange(36)
        low, peak, up = one_window(np.sin(2 * np.pi * i / 36) + 5.0)
        assert low == pytest.approx(4.0)
        assert peak == pytest.approx(5.0)
        assert up == pytest.approx(6.0)

    def test_empty_window_rejected(self):
        # an empty series holds no window
        with pytest.raises(SeriesTooShort):
            granulate_series(series_of([]), 2)

    def test_nan_rejected(self):
        with pytest.raises(InvalidGranule):
            one_window([1.0, np.nan])

    @given(
        values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=50),
        shift=st.floats(-10, 10, allow_nan=False),
    )
    def test_translation_shifts_all_three_parameters(self, values, shift):
        base = one_window(np.array(values))
        moved = one_window(np.array(values) + shift)
        assert moved == pytest.approx([b + shift for b in base], abs=1e-9)

    @given(values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=50))
    def test_parameters_ordered(self, values):
        low, peak, up = one_window(np.array(values))
        assert low <= peak <= up


class TestGranulateSeries:
    def test_two_windows(self):
        rows = granulate_series(series_of([1, 2, 3, 4, 6, 8]), 3)
        assert rows.tolist() == [[1, 2, 3], [4, 6, 8]]

    def test_stuck_reading_window(self):
        # A 36-sample stretch of one repeated reading, as from a stuck sensor.
        values = np.concatenate([np.linspace(3.0, 6.5, 36), np.full(36, 0.1)])
        rows = granulate_series(series_of(values), 36)
        assert rows[1].tolist() == [0.1, 0.1, 0.1]

    def test_identical_windows_identical_granules(self):
        rows = granulate_series(series_of([1, 2, 3] * 3), 3)
        assert rows.tolist() == [[1, 2, 3]] * 3

    def test_matrix_layout(self):
        # one float64 row per window: (min, mean, max) whatever the order
        rows = granulate_series(series_of([3, 1, 2, 8, 4, 6]), 3)
        assert rows.shape == (2, 3) and rows.dtype == np.float64
        assert rows.tolist() == [[1, 2, 3], [4, 6, 8]]

    def test_signed_zero_windows_match_granulate_window(self):
        values = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, 0.0])
        rows = granulate_series(series_of(values), 3)
        for i, row in enumerate(rows):
            assert row.tobytes() == granulate_window(values[3 * i : 3 * i + 3]).tobytes()

    @given(
        window_size=st.integers(2, 40),
        count=st.integers(1, 6),
        data=st.data(),
    )
    def test_rows_match_granulate_window_bit_for_bit(self, window_size, count, data):
        reading = st.floats(-100, 100)
        constant = st.one_of(st.sampled_from([0.1, 1.9, 0.0, -0.0]), reading)
        window = st.one_of(
            st.lists(reading, min_size=window_size, max_size=window_size),
            constant.map(lambda v: [v] * window_size),
        )
        windows = data.draw(st.lists(window, min_size=count, max_size=count))
        tail = data.draw(st.lists(reading, max_size=window_size - 1))
        values = np.array([v for w in windows for v in w] + tail, dtype=np.float64)
        rows = granulate_series(series_of(values), window_size)
        assert rows.shape == (count, 3)
        for i, row in enumerate(rows):
            window_values = values[i * window_size : (i + 1) * window_size]
            assert row.tobytes() == granulate_window(window_values).tobytes()

    @given(
        window_size=st.integers(2, 12),
        count=st.integers(1, 5),
        data=st.data(),
    )
    def test_nan_in_a_used_window_rejected(self, window_size, count, data):
        values = np.linspace(1.0, 9.0, count * window_size + window_size - 1)
        position = data.draw(st.integers(0, len(values) - 1))
        values[position] = np.nan
        if position < count * window_size:
            with pytest.raises(InvalidGranule):
                granulate_series(series_of(values), window_size)
        else:
            # the dropped remainder is never granulated
            assert len(granulate_series(series_of(values), window_size)) == count
