import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest

from activelp import data
from activelp.data import HOUR, DataError, PriceSeries
from csv_oracle import write_rows


def make_series(n, start_ts=1609459200, price=100.0):
    ts = start_ts + HOUR * np.arange(n)
    closes = np.full(n, price)
    return PriceSeries(ts, closes, closes, closes, closes)


class TestPriceSeries:
    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_price(self, column, bad):
        cols = [np.full(5, 10.0) for _ in range(4)]
        cols[column][3] = bad
        cols[(column + 1) % 4][4] = bad  # a later row does not hide the first
        with pytest.raises(DataError, match=f"^non-finite price at row 3 \\(ts={3 * HOUR}\\)$"):
            PriceSeries(HOUR * np.arange(5), *cols)

    def test_finite_errors_unchanged(self):
        ts = HOUR * np.arange(3)
        with pytest.raises(DataError, match=f"^non-positive price at row 1 \\(ts={HOUR}\\)$"):
            PriceSeries(ts, [1, 1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1])
        with pytest.raises(DataError, match=f"^OHLC ordering violated at row 2 \\(ts={2 * HOUR}\\)$"):
            PriceSeries(ts, [1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 2])

    def test_rejects_gap(self):
        ts = [0, HOUR, 3 * HOUR]
        with pytest.raises(DataError, match="missing"):
            PriceSeries(ts, [1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1])

    def test_slice(self):
        s = make_series(10)
        sub = s.slice(2, 7)
        assert len(sub) == 5
        assert sub.timestamps[0] == s.timestamps[2]

    def test_slice_bounds(self):
        s = make_series(10)
        with pytest.raises(DataError):
            s.slice(5, 11)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 48
        closes = 3000 * np.exp(np.cumsum(rng.normal(0, 0.01, n)))
        opens = np.concatenate([[closes[0]], closes[:-1]])
        highs = np.maximum(opens, closes) * 1.01
        lows = np.minimum(opens, closes) * 0.99
        vols = rng.uniform(0, 100, n)
        series = PriceSeries(1609459200 + HOUR * np.arange(n), opens, highs, lows, closes, vols)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        assert data.load_candles(path) == series

    def test_csv_round_trip_without_volume(self, tmp_path):
        series = make_series(5)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        assert data.load_candles(path) == series


class TestLoadCandles:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamp,open,high,low,close\n"
            "2021-01-01T00:00:00Z,1,2,0.5,1.5\n"
            "2021-01-01T01:00:00Z,1.5,2,1,1.2\n"
            "2021-01-01T02:00:00Z,1.2,1.4,1.1,1.3\n")
        series = data.load_candles(path)
        assert len(series) == 3
        assert series.timestamps[0] == 1609459200

    def test_gap_error_names_the_hour(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamp,open,high,low,close\n"
            "1609459200,1,1,1,1\n"
            "1609466400,1,1,1,1\n")
        with pytest.raises(DataError, match="2021-01-01T01:00:00Z"):
            data.load_candles(path)

    def test_gap_fill(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamp,open,high,low,close\n"
            "1609459200,1,2,1,2\n"
            "1609466400,2,3,2,3\n")
        series = data.load_candles(path, fill_gaps=True)
        assert len(series) == 3
        assert series.opens[1] == series.highs[1] == series.lows[1] == series.closes[1] == 2.0

    def test_non_positive_price_reports_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamp,open,high,low,close\n"
            "1609459200,1,1,1,1\n"
            "1609462800,1,1,-1,1\n")
        with pytest.raises(DataError, match="row 3"):
            data.load_candles(path)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "timestamp,open,high,low,close\n"
            "1609459200,1,oops,1,1\n")
        with pytest.raises(DataError, match="row 2.*high"):
            data.load_candles(path)

    def test_one_row_valid_bar(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("timestamp,open,high,low,close\n0,10,12,9,11\n")
        series = data.load_candles(path)
        bar = (series.opens[0], series.highs[0], series.lows[0], series.closes[0])
        assert bar == (10, 12, 9, 11)

    def test_one_row_rejects_bad_ordering(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("timestamp,open,high,low,close\n0,10,9.5,9,11\n")
        with pytest.raises(DataError, match="row 2: candle at 0 violates OHLC ordering"):
            data.load_candles(path)

    def test_one_row_rejects_non_positive_low(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("timestamp,open,high,low,close\n0,1,1,0,1\n")
        with pytest.raises(DataError, match="row 2: non-positive price"):
            data.load_candles(path)

    def test_header_only_file_has_no_data_rows_and_warns_nothing(self, tmp_path, recwarn):
        path = tmp_path / "h.csv"
        path.write_text("timestamp,open,high,low,close\n")
        with pytest.raises(DataError, match="no data rows$"):
            data.load_candles(path)
        assert not recwarn.list

    def test_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("timestamp,open,close\n1,1,1\n")
        with pytest.raises(DataError, match="high"):
            data.load_candles(path)


class TestResample:
    def test_one_trade_per_hour(self):
        ts = np.array([0, HOUR, 2 * HOUR]) + 30
        series = data.resample_hourly(ts, [5.0, 6.0, 7.0])
        assert len(series) == 3
        for i, p in enumerate([5.0, 6.0, 7.0]):
            assert series.opens[i] == series.highs[i] == series.lows[i] == series.closes[i] == p

    def test_bucket_extrema(self):
        ts = np.array([10, 20, 30])
        series = data.resample_hourly(ts, [1.0, 3.0, 2.0])
        assert series.opens[0] == 1.0
        assert series.highs[0] == 3.0
        assert series.lows[0] == 1.0
        assert series.closes[0] == 2.0

    def test_empty_hour_forward_fills(self):
        ts = np.array([10, 2 * HOUR + 10])
        series = data.resample_hourly(ts, [4.0, 5.0])
        assert len(series) == 3
        assert series.opens[1] == series.closes[1] == 4.0

    def test_every_trade_in_one_bucket(self):
        rng = np.random.default_rng(6)
        ts = np.sort(rng.integers(0, 10 * HOUR, 500))
        px = rng.uniform(10, 20, 500)
        series = data.resample_hourly(ts, px)
        hours = ts // HOUR
        for h in np.unique(hours):
            mask = hours == h
            i = int(h - hours[0])
            assert series.highs[i] >= px[mask].max() - 1e-12
            assert series.lows[i] <= px[mask].min() + 1e-12

    def test_volume_sums_per_bucket(self):
        ts = np.array([10, 20, HOUR + 5])
        series = data.resample_hourly(ts, [1.0, 2.0, 3.0], [5.0, 7.0, 2.0])
        assert series.volumes is not None
        assert series.volumes[0] == 12.0
        assert series.volumes[1] == 2.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            data.resample_hourly(np.array([]), np.array([]))

    def test_rejects_unsorted(self):
        with pytest.raises(DataError):
            data.resample_hourly(np.array([100, 50]), np.array([1.0, 1.0]))


class TestGbm:
    def test_zero_vol_zero_drift_constant(self):
        series = data.gbm_generate(seed=1, n_hours=50, p_start=2000.0)
        assert np.all(series.closes == 2000.0)
        assert np.all(series.highs == 2000.0)

    def test_zero_vol_drift_exponential(self):
        d = 0.001
        series = data.gbm_generate(seed=1, n_hours=100, p_start=100.0, drift=d)
        t = np.arange(100)
        np.testing.assert_allclose(series.closes, 100.0 * np.exp(d * t), rtol=1e-10)

    def test_log_return_mean_within_three_se(self):
        mu, sigma = 1e-4, 0.01
        n = 100_001
        series = data.gbm_generate(seed=7, n_hours=n, p_start=3000.0, drift=mu, vol=sigma)
        rets = np.diff(np.log(series.closes))
        se = sigma / np.sqrt(rets.size)
        assert abs(rets.mean() - (mu - sigma**2 / 2)) < 3 * se

    def test_determinism(self):
        a = data.gbm_generate(seed=42, n_hours=200, p_start=1500.0, drift=1e-5, vol=0.02)
        b = data.gbm_generate(seed=42, n_hours=200, p_start=1500.0, drift=1e-5, vol=0.02)
        assert a == b

    def test_candles_valid(self):
        series = data.gbm_generate(seed=3, n_hours=500, p_start=100.0, vol=0.05)
        assert np.all(series.lows <= np.minimum(series.opens, series.closes))
        assert np.all(series.highs >= np.maximum(series.opens, series.closes))
        assert np.all(np.diff(series.timestamps) == HOUR)

    # exp overflows; the compounding overflows; paths overflow and underflow, so 0 * inf
    @pytest.mark.parametrize("drift, vol", [(1000.0, 0.0), (100.0, 0.0), (5e5, 1000.0)])
    def test_overflow_is_a_data_error_and_warns_nothing(self, drift, vol):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                data.gbm_generate(seed=1, n_hours=50, p_start=2000.0, drift=drift, vol=vol)


# Row-wise reference: the loaders, resampler, generator and writer as they
# were before the columnar rewrite (one DictReader row, one Candle and one
# Python float at a time). The columnar code must match them bitwise,
# errors included.

@dataclass(frozen=True)
class _Candle:
    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float | None = None

    def __post_init__(self):
        if self.low <= 0:
            raise DataError(f"candle at {self.timestamp} has non-positive price")
        if not (self.low <= min(self.open, self.close) <= max(self.open, self.close) <= self.high):
            raise DataError(f"candle at {self.timestamp} violates OHLC ordering")


def _series_of(candles, volumes):
    return PriceSeries(
        [c.timestamp for c in candles], [c.open for c in candles], [c.high for c in candles],
        [c.low for c in candles], [c.close for c in candles], volumes,
    )


def rowwise_load_candles(path, fill_gaps=False):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        fields = [f.strip().lower() for f in reader.fieldnames]
        for col in ["timestamp", "open", "high", "low", "close"]:
            if col not in fields:
                raise DataError(f"{path}: missing column {col!r}")
        has_volume = "volume" in fields
        for idx, raw in enumerate(reader, start=2):
            raw = {k.strip().lower(): v for k, v in raw.items() if k is not None}
            ts = data._parse_timestamp(raw["timestamp"], idx)
            o = data._parse_float(raw["open"], idx, "open")
            h = data._parse_float(raw["high"], idx, "high")
            lo = data._parse_float(raw["low"], idx, "low")
            c = data._parse_float(raw["close"], idx, "close")
            if min(o, h, lo, c) <= 0:
                raise DataError(f"row {idx}: non-positive price")
            vol = None
            if has_volume and raw.get("volume") not in (None, ""):
                vol = data._parse_float(raw["volume"], idx, "volume")
            try:
                rows.append(_Candle(ts, o, h, lo, c, vol))
            except DataError as exc:
                raise DataError(f"row {idx}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    if fill_gaps:
        filled = [rows[0]]
        for cand in rows[1:]:
            prev = filled[-1]
            if cand.timestamp <= prev.timestamp:
                raise DataError(f"timestamps not increasing at {data._iso(cand.timestamp)}")
            ts = prev.timestamp + HOUR
            while ts < cand.timestamp:
                filled.append(_Candle(ts, prev.close, prev.close, prev.close, prev.close,
                                      0.0 if prev.volume is not None else None))
                ts += HOUR
            filled.append(cand)
        rows = filled
    volumes = None
    if any(c.volume is not None for c in rows):
        volumes = [c.volume if c.volume is not None else 0.0 for c in rows]
    return _series_of(rows, volumes)


def rowwise_load_trades(path):
    ts, px, vol = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        fields = [f.strip().lower() for f in reader.fieldnames]
        for col in ("timestamp", "price"):
            if col not in fields:
                raise DataError(f"{path}: missing column {col!r}")
        has_volume = "volume" in fields
        for idx, raw in enumerate(reader, start=2):
            raw = {k.strip().lower(): v for k, v in raw.items() if k is not None}
            ts.append(data._parse_timestamp(raw["timestamp"], idx))
            price = data._parse_float(raw["price"], idx, "price")
            if price <= 0:
                raise DataError(f"row {idx}: non-positive price")
            px.append(price)
            if has_volume:
                vol.append(data._parse_float(raw.get("volume") or "0", idx, "volume"))
    if not ts:
        raise DataError(f"{path}: no data rows")
    return (np.array(ts, dtype=np.int64), np.array(px, dtype=float),
            np.array(vol, dtype=float) if has_volume else None)


def rowwise_resample_hourly(timestamps, prices, volumes=None):
    timestamps = np.asarray(timestamps, dtype=np.int64)
    prices = np.asarray(prices, dtype=float)
    if volumes is not None:
        volumes = np.asarray(volumes, dtype=float)
    hours = timestamps // HOUR
    candles = []
    prev_close = None
    for h in range(int(hours[0]), int(hours[-1]) + 1):
        mask = hours == h
        if np.any(mask):
            bucket = prices[mask]
            vol = float(volumes[mask].sum()) if volumes is not None else None
            candles.append(_Candle(h * HOUR, float(bucket[0]), float(bucket.max()),
                                   float(bucket.min()), float(bucket[-1]), vol))
            prev_close = float(bucket[-1])
        else:
            candles.append(_Candle(h * HOUR, prev_close, prev_close, prev_close, prev_close,
                                   0.0 if volumes is not None else None))
    return _series_of(candles, None if volumes is None else [c.volume for c in candles])


def rowwise_gbm_generate(seed, n_hours, p_start, drift=0.0, vol=0.0, start_ts=1609459200):
    rng = np.random.default_rng(seed)
    n_sub = 4
    step_drift = (drift - 0.5 * vol * vol) / n_sub
    step_vol = vol / math.sqrt(n_sub)
    ts = start_ts + HOUR * np.arange(n_hours, dtype=np.int64)
    opens, highs, lows, closes = (np.empty(n_hours) for _ in range(4))
    opens[0] = highs[0] = lows[0] = closes[0] = p_start
    price = p_start
    for t in range(1, n_hours):
        z = rng.standard_normal(n_sub)
        path = price * np.exp(np.cumsum(step_drift + step_vol * z))
        opens[t] = price
        highs[t] = max(price, path.max())
        lows[t] = min(price, path.min())
        closes[t] = path[-1]
        price = closes[t]
    return PriceSeries(ts, opens, highs, lows, closes)


def rowwise_to_csv(series, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["timestamp", "open", "high", "low", "close"]
        if series.volumes is not None:
            header.append("volume")
        writer.writerow(header)
        for i in range(len(series)):
            row = [int(series.timestamps[i]), repr(float(series.opens[i])),
                   repr(float(series.highs[i])), repr(float(series.lows[i])),
                   repr(float(series.closes[i]))]
            if series.volumes is not None:
                row.append(repr(float(series.volumes[i])))
            writer.writerow(row)


def bitwise_equal(a, b):
    """Same dtype, shape and bytes; None only equals None."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def series_columns(s):
    return (s.timestamps, s.opens, s.highs, s.lows, s.closes, s.volumes)


def outcome(fn, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the reference's error type is part of the contract
        return type(exc), str(exc)


def assert_same_outcome(new, ref, columns):
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert new == ref
    else:
        assert not (isinstance(new, tuple) and isinstance(new[0], type)), new
        assert all(bitwise_equal(a, b) for a, b in zip(columns(new), columns(ref)))


def long_file(header, line, bad_index, bad_line, n=20_000):
    """A header and n data lines `line(i)`, with line `bad_index` replaced."""
    return header + "\n" + "".join(
        (bad_line if i == bad_index else line(i)) + "\n" for i in range(n))


E = "timestamp,open,high,low,close"
EV = E + ",volume"
# The multi-error files hold several bad rows and the one-row files several
# bad cells in one row. Each loader reports the first bad row, with that
# row's checks in order, so parsing whole columns first would name another.
CANDLE_FILES = {
    "blank_lines": f"{E}\n\n1609459200,1,2,0.5,1.5\n\n\n1609462800,1.5,2,1,1.2\n\n",
    "short_row_close": f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,1.5,2,1\n",
    "short_row_no_volume_cell": f"{EV}\n1609459200,1,2,0.5,1.5,3\n1609462800,1.5,2,1,1.2\n",
    "short_row_timestamp_only": f"{E}\n1609459200\n",
    "extra_fields": f"{E}\n1609459200,1,2,0.5,1.5,7,8,9\n1609462800,1.5,2,1,1.2\n",
    "header_case_and_space": " Timestamp ,OPEN, High,low ,Close, VOLUME\n1609459200,1,2,0.5,1.5,4\n",
    "header_repeated_name": "timestamp,open,high,low,close,open\n1609459200,9,2,0.5,1.5,1\n",
    "header_repeated_short_row": "timestamp,open,high,low,close,open\n1609459200,1,2,0.5,1.5\n",
    "header_names_alike": "timestamp,Open,high,low,close,open\n1609459200,9,2,0.5,1.5,1\n",
    "quoted_cells": f'{E}\n"1609459200","1.0","2","0.5","1.5"\n"1609462800"," 1.5 ","2e0","1",+1.2\n',
    "mixed_iso_and_epoch": (f"{E}\n2021-01-01T00:00:00Z,1,2,0.5,1.5\n1609462800,1.5,2,1,1.2\n"
                            "2021-01-01 02:00:00,1.2,1.4,1.1,1.3\n"
                            "2021-01-01T03:00:00+00:00,1.3,1.4,1.1,1.2\n"),
    "padded_timestamp": f"{E}\n 1609459200 ,1,2,0.5,1.5\n",
    "volume_empty": f"{EV}\n1609459200,1,2,0.5,1.5,\n1609462800,1.5,2,1,1.2,\n",
    "volume_partly_empty": f"{EV}\n1609459200,1,2,0.5,1.5,\n1609462800,1.5,2,1,1.2,-0.0\n",
    "volume_space": f"{EV}\n1609459200,1,2,0.5,1.5, \n",
    "volume_bad": f"{EV}\n1609459200,1,2,0.5,1.5,lots\n",
    "nan_price": f"{E}\n1609459200,nan,2,0.5,1.5\n",
    "inf_price": f"{E}\n1609459200,1,inf,0.5,1.5\n",
    "inf_volume": f"{EV}\n1609459200,1,2,0.5,1.5,-inf\n",
    "zero_price": f"{E}\n1609459200,1,2,0,1.5\n",
    "negative_price": f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,1,2,-0.5,1.5\n",
    "bad_ordering": f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,1,1.2,0.5,1.5\n",
    "missing_timestamp": f"{E}\n,1,2,0.5,1.5\n",
    "bad_timestamp": f"{E}\n2021-13-45,1,2,0.5,1.5\n",
    "float_timestamp": f"{E}\n1609459200.0,1,2,0.5,1.5\n",
    "header_only": f"{E}\n",
    "header_only_blank_lines": f"{E}\n\n\n",
    "empty": "",
    "blank_first_line": f"\n{E}\n1609459200,1,2,0.5,1.5\n",
    "missing_column": "timestamp,open,high,close\n1609459200,1,2,1.5\n",
    "gap": f"{EV}\n1609459200,1,2,0.5,1.5,3\n1609470000,1.5,2,1,1.2,4\n1609473600,1.2,2,1,1.2,\n",
    "gap_without_volume": f"{E}\n1609459200,1,2,0.5,1.5\n1609470000,1.5,2,1,1.2\n",
    "gap_off_the_hour": f"{E}\n1609459200,1,2,0.5,1.5\n1609466500,1.5,2,1,1.2\n",
    "regression": f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,1,2,0.5,1.5\n1609455600,1,2,0.5,1.5\n",
    "duplicate": f"{E}\n1609459200,1,2,0.5,1.5\n1609459200,1,2,0.5,1.5\n",
    "timestamp_beyond_int64": f"{E}\n99999999999999999999,1,2,0.5,1.5\n",
    "timestamp_beyond_int64_then_bad_row": f"{E}\n99999999999999999999,1,2,0.5,1.5\n1,1,x,1,1\n",
    "multi_error_parse_before_timestamp": f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,1,oops,1,1\nlater,1,2,0.5,1.5\n",
    "multi_error_ordering_before_parse": f"{E}\n1609459200,1,1.2,0.5,1.5\n1609462800,1,2,0.5,x\n,1,1,1,1\n",
    "multi_error_volume_before_ordering": f"{EV}\n1609459200,1,2,0.5,1.5,v\n1609462800,1,1.2,0.5,1.5,1\n1609466400,-1,2,0.5,1.5,1\n",
    "blank_volumes_before_bad_row": f"{EV}\n1609459200,1,2,0.5,1.5,\n1609462800,1,2,0.5,1.5\n1609466400,1,2,0.5,x,1\n",
    "one_row_timestamp_before_prices": f"{E}\nwhen,1,oops,0.5,1.5\n",
    "one_row_prices_in_column_order": f"{E}\n1609459200,1,oops,nan,x\n",
    "one_row_non_positive_before_volume": f"{EV}\n1609459200,1,2,-1,1.5,x\n",
    "one_row_volume_before_ordering": f"{EV}\n1609459200,1,1.2,0.5,1.5,x\n",
    # files numpy's C reader must leave to the csv reader: cells it would read
    # unlike csv, int() and float() do, cells it rejects, and a long file whose
    # one bad row comes near the end
    "quoted_comma_before_prices": ('timestamp,note,junk,open,high,low,close\n'
                                   '1609459200,"a,b",7,1,2,0.5,1.5\n1609462800,"c,d",7,1.5,2,1,1.2\n'),
    "first_cell_hash": "#id,timestamp,open,high,low,close\n#1,1609459200,1,2,0.5,1.5\n2,1609462800,1.5,2,1,1.2\n",
    "underscore_and_unicode_digits": f"{E}\n1_609_459_200,1_0,2\u0660,0.5,1.5\n",
    "timestamp_non_ascii_digit": f"{E}\n1609459200,1,2,0.5,1.5\n1\u01fe,1.5,2,1,1.2\n",
    "price_unit_separator": f"{E}\n1609459200,1,2,\x1f0.5,1.5\n",
    "field_over_csv_limit": ("timestamp,note,open,high,low,close\n1609459200,"
                             + "x" * (csv.field_size_limit() + 1) + ",1,2,0.5,1.5\n"),
    "long_bad_row_near_end": long_file(
        E, lambda i: f"{1609459200 + HOUR * i},{i + 1},{i + 3},{i + 0.5},{i + 2}",
        19_960, f"{1609459200 + HOUR * 19_960},19961,19963,-1,19962"),
}
TRADE_FILES = {
    "plain": "timestamp,price,volume\n1609459200,3000.5,1.5\n1609459260,3001,0.25\n",
    "no_volume_column": "timestamp,price\n1609459200,3000.5\n1609459260,3001\n",
    "volume_cells_empty_and_short": "timestamp,price,volume\n1609459200,3000.5,\n1609459260,3001\n1609459300,3002,-0.0\n",
    "blank_lines_and_extra_fields": "timestamp,price\n\n1609459200,3000.5,x,y\n\n1609459260,3001\n",
    "header_case_and_space": "TimeStamp , Price,VOLUME \n1609459200,3000.5,2\n",
    "quoted_cells": 'timestamp,price\n"1609459200","3000.5"\n',
    "mixed_iso_and_epoch": "timestamp,price\n2021-01-01T00:00:30Z,3000.5\n1609459260,3001\n",
    "nan_price": "timestamp,price\n1609459200,nan\n",
    "inf_volume": "timestamp,price,volume\n1609459200,3000,inf\n",
    "zero_price": "timestamp,price\n1609459200,0\n",
    "negative_price": "timestamp,price\n1609459200,3000\n1609459260,-3000\n",
    "short_row_price": "timestamp,price\n1609459200\n",
    "volume_space": "timestamp,price,volume\n1609459200,3000, \n",
    "bad_timestamp": "timestamp,price\nyesterday,3000\n",
    "header_only": "timestamp,price,volume\n",
    "empty": "",
    "missing_column": "timestamp,volume\n1609459200,3\n",
    "timestamp_beyond_int64": "timestamp,price\n-99999999999999999999,3000\n",
    "multi_error_parse_before_timestamp": "timestamp,price\n1609459200,3000\n1609459260,oops\nlater,3000\n",
    "multi_error_price_before_volume": "timestamp,price,volume\n1609459200,-1,x\n1609459260,3000,y\n",
    "multi_error_volume_before_timestamp": "timestamp,price,volume\n1609459200,1,v\n,3000,1\n",
    "one_row_timestamp_before_price": "timestamp,price,volume\nwhen,oops,x\n",
    "blank_volumes_before_bad_row": "timestamp,price,volume\n1609459200,3000,\n1609459260,3000\n1609459300,-1,1\n",
    # as in CANDLE_FILES
    "first_cell_hash": "#note,timestamp,price\n#a,1609459200,3000\nb,1609459260,3001\n",
    "timestamp_non_ascii_digit": "timestamp,price\n1609459200,3000\n16094592\u04ff0,3001\n",
    "volume_unit_separator": "timestamp,price,volume\n1609459200,3000,2\x1c\n",
    "long_bad_row_near_end": long_file(
        "timestamp,price,volume", lambda i: f"{1609459200 + i},{3000 + i % 17},{i % 5}",
        19_990, "1609479190,3000,v"),
}


def write(tmp_path, name, text):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    return path


@pytest.mark.filterwarnings("error")
class TestLoaderOracle:
    @pytest.mark.parametrize("name", sorted(CANDLE_FILES))
    @pytest.mark.parametrize("fill_gaps", [False, True])
    def test_candles_match_rowwise(self, tmp_path, name, fill_gaps):
        path = write(tmp_path, name, CANDLE_FILES[name])
        assert_same_outcome(outcome(data.load_candles, path, fill_gaps=fill_gaps),
                            outcome(rowwise_load_candles, path, fill_gaps=fill_gaps),
                            series_columns)

    @pytest.mark.parametrize("name", sorted(TRADE_FILES))
    def test_trades_match_rowwise(self, tmp_path, name):
        path = write(tmp_path, name, TRADE_FILES[name])
        assert_same_outcome(outcome(data.load_trades, path), outcome(rowwise_load_trades, path),
                            lambda r: r)

    def test_multi_error_files_name_the_first_bad_row(self, tmp_path):
        expected = {
            "multi_error_parse_before_timestamp": "row 3: cannot parse high value 'oops'",
            "multi_error_ordering_before_parse": "row 2: candle at 1609459200 violates OHLC ordering",
            "multi_error_volume_before_ordering": "row 2: cannot parse volume value 'v'",
        }
        for name, message in expected.items():
            with pytest.raises(DataError) as info:
                data.load_candles(write(tmp_path, name, CANDLE_FILES[name]))
            assert str(info.value) == message

    def test_random_files_match_rowwise(self, tmp_path):
        rng = np.random.default_rng(11)
        series = data.gbm_generate(seed=5, n_hours=300, p_start=3000.0, vol=0.02)
        series = PriceSeries(series.timestamps, series.opens, series.highs, series.lows,
                             series.closes, rng.exponential(1.0, 300))
        path = tmp_path / "c.csv"
        series.to_csv(path)
        assert data.load_candles(path) == rowwise_load_candles(path) == series
        ts = np.sort(rng.integers(1609459200, 1609459200 + 50 * HOUR, 9000))
        lines = [f"{t},{p!r},{v!r}" for t, p, v in zip(
            ts.tolist(), rng.uniform(1, 5000, ts.size).tolist(), rng.exponential(1, ts.size).tolist())]
        path = tmp_path / "t.csv"
        path.write_text("timestamp,price,volume\n" + "\n".join(lines) + "\n")
        new, ref = data.load_trades(path), rowwise_load_trades(path)
        assert all(bitwise_equal(a, b) for a, b in zip(new, ref))

    def test_csv_error_after_a_bad_row(self, tmp_path):
        # the row-wise loader meets the bad row before the line csv rejects
        limit = csv.field_size_limit(64)
        try:
            path = write(tmp_path, "big", f"{E}\n1609459200,1,x,0.5,1.5\n1609462800,{'1' * 100},2,1,1\n")
            assert outcome(data.load_candles, path) == outcome(rowwise_load_candles, path)
            assert outcome(data.load_candles, path)[1] == "row 2: cannot parse high value 'x'"
            path = write(tmp_path, "big2", f"{E}\n1609459200,1,2,0.5,1.5\n1609462800,{'1' * 100},2,1,1\n")
            assert outcome(data.load_candles, path) == outcome(rowwise_load_candles, path)
            assert outcome(data.load_candles, path)[0] is csv.Error
        finally:
            csv.field_size_limit(limit)


class TestBlocks:
    """Loads with three-row blocks against the default block size."""

    ROWS = [f"{1609459200 + HOUR * i},{i + 1},{i + 3},{i + 0.5},{i + 2},{i}" for i in range(10)]

    def text(self, rows):
        return EV + "\n" + "\n".join(rows) + "\n"

    def test_result_equals_an_unblocked_load(self, tmp_path, monkeypatch):
        rows = list(self.ROWS)
        rows[4] = rows[4].rsplit(",", 1)[0] + ","  # one empty volume cell
        path = write(tmp_path, "c", self.text(rows))
        whole = data.load_candles(path)
        monkeypatch.setattr(data, "_BLOCK_ROWS", 3)
        assert data.load_candles(path) == whole == rowwise_load_candles(path)
        trades = write(tmp_path, "t", "timestamp,price,volume\n" + "\n".join(
            f"{1609459200 + 7 * i},{100 + i},{i % 3}" for i in range(10)) + "\n")
        got, ref = data.load_trades(trades), rowwise_load_trades(trades)
        assert all(bitwise_equal(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("bad", [4, 7, 8])  # rows 5, 8 and 9: blocks 2 and 3
    def test_bad_row_reports_its_row_number(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 3)
        rows = list(self.ROWS)
        rows[bad] = rows[bad].replace(",", ",x", 1)
        with pytest.raises(DataError) as info:
            data.load_candles(write(tmp_path, "c", self.text(rows)))
        assert str(info.value).startswith(f"row {bad + 2}: cannot parse open value")

    def test_blank_lines_across_a_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 3)
        rows = list(self.ROWS)
        rows[6] = f"{1609459200 + 6 * HOUR},-1,9,6.5,8,6"  # row 8
        text = self.text(rows[:2] + ["", ""] + rows[2:3] + ["", ""] + rows[3:])
        path = write(tmp_path, "c", text)
        with pytest.raises(DataError) as info:
            data.load_candles(path)
        assert str(info.value) == "row 8: non-positive price"
        assert outcome(data.load_candles, path) == outcome(rowwise_load_candles, path)

    def test_clean_epoch_files_parse_no_cell_by_cell(self, tmp_path, monkeypatch):
        """The per-cell parsers only run to report a bad row."""
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        series = data.gbm_generate(seed=2, n_hours=5000, p_start=3000.0, vol=0.01)
        candles = tmp_path / "c.csv"
        series.to_csv(candles)
        trades = write(tmp_path, "t", "timestamp,price,volume\n" + "\n".join(
            f"{1609459200 + i},{p!r},{i % 7}" for i, p in enumerate(series.closes.tolist())) + "\n")
        monkeypatch.setattr(data, "_parse_float", counted(data._parse_float))
        monkeypatch.setattr(data, "_parse_timestamp", counted(data._parse_timestamp))
        assert len(data.load_candles(candles)) == 5000
        assert data.load_trades(trades)[0].size == 5000
        assert calls == []

    def test_clean_files_skip_the_csv_reader(self, tmp_path, monkeypatch):
        """Clean files are read whole by numpy's C reader."""
        series = data.gbm_generate(seed=3, n_hours=500, p_start=3000.0, vol=0.01)
        candles = tmp_path / "c.csv"
        series.to_csv(candles)
        trades = write(tmp_path, "t", "timestamp,price,volume\n" + "\n".join(
            f"{1609459200 + i},{p!r},{i % 7}" for i, p in enumerate(series.closes.tolist())) + "\n")
        ref = rowwise_load_trades(trades)

        def refuse(*args):
            raise AssertionError("_read_blocks was called")

        monkeypatch.setattr(data, "_read_blocks", refuse)
        assert data.load_candles(candles) == series
        assert all(bitwise_equal(a, b) for a, b in zip(data.load_trades(trades), ref))


class TestColumnarOracle:
    def test_resample_matches_rowwise(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 400))
            # few trades over many hours: empty and one-trade hours
            span = int(rng.choice([1, 5, 3 * n]))
            ts = np.sort(rng.integers(0, span * HOUR, n)) + 1609459200
            px = rng.uniform(1, 5000, n)
            vols = rng.exponential(1.0, n) if seed % 3 else None
            new = data.resample_hourly(ts, px, vols)
            ref = rowwise_resample_hourly(ts, px, vols)
            counts = np.bincount(ts // HOUR - ts[0] // HOUR)
            if span > 5:
                assert (counts == 0).any() and (counts == 1).any()
            assert all(bitwise_equal(a, b) for a, b in zip(series_columns(new), series_columns(ref)))

    def test_resample_rejects_nan_as_before(self):
        ts = np.array([10, HOUR + 10, 2 * HOUR + 10])
        with pytest.raises(DataError, match=f"^candle at {HOUR} violates OHLC ordering$"):
            data.resample_hourly(ts, [1.0, math.nan, 2.0])
        with pytest.raises(DataError, match=f"^candle at {HOUR} violates OHLC ordering$"):
            rowwise_resample_hourly(ts, [1.0, math.nan, 2.0])

    @pytest.mark.parametrize("args", [(1, 30000, 3000, 0, 0.005), (7, 5000, 1, 0.1, 0.3),
                                      (3, 1, 100.0, 0.1, 0.2), (3, 2, 100.0, 0.1, 0.2),
                                      (4, 50, 250.0, 0.01, 0.0)])
    def test_gbm_matches_rowwise(self, args):
        new, ref = data.gbm_generate(*args), rowwise_gbm_generate(*args)
        assert all(bitwise_equal(a, b) for a, b in zip(series_columns(new), series_columns(ref)))

    def test_gbm_non_finite_rejected(self):
        # a nan drift makes every price after the first candle nan
        msg = f"^non-finite price at row 1 \\(ts={1609459200 + HOUR}\\)$"
        for generate in (data.gbm_generate, rowwise_gbm_generate):
            with pytest.raises(DataError, match=msg):
                generate(5, 4, 100.0, math.nan, 0.1)

    @pytest.mark.parametrize("with_volume", [False, True])
    def test_to_csv_bytes_match_row_writer(self, tmp_path, with_volume):
        series = data.gbm_generate(seed=9, n_hours=1100, p_start=3000.0, vol=0.01)
        highs = series.highs.copy()
        lows = series.lows.copy()
        opens, closes = series.opens.copy(), series.closes.copy()
        opens[3] = highs[3] = lows[3] = closes[3] = 5e-324
        opens[4] = highs[4] = lows[4] = closes[4] = 1e16
        volumes = None
        if with_volume:
            volumes = np.linspace(-1.0, 1e16, len(series))
            volumes[:4] = (-0.0, 5e-324, 1e16, 0.0)
        series = PriceSeries(series.timestamps, opens, highs, lows, closes, volumes)
        series.to_csv(tmp_path / "new.csv")
        rowwise_to_csv(series, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestWriteCsv:
    """`write_csv` formats each distinct cell of a block's dtype group once;
    its bytes are the per-cell writer's of `tests/csv_oracle.py`."""

    SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -7.25, 1e16,
               3000.123456789, 1.7976931348623157e308]

    @staticmethod
    def runs(rng, values, n):
        """n cells drawn from `values` in runs of 1 to 40 equal cells."""
        picks = rng.integers(0, len(values), n)
        lengths = rng.integers(1, 41, n)
        return np.repeat(np.asarray(values, dtype=object)[picks], lengths)[:n].tolist()

    def assert_same_bytes(self, tmp_path, header, columns):
        data.write_csv(tmp_path / "new.csv", header, columns)
        write_rows(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_signed_zeros_nans_and_infinities(self, tmp_path):
        # a writer that compared cells by value would print -0.0 as 0.0
        other_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64)
        zeros = np.repeat([0.0, -0.0, 0.0, -0.0, 1.5], 3)
        specials = np.repeat([math.nan, -math.nan, math.inf, -math.inf, other_nan[0]], 3)
        self.assert_same_bytes(tmp_path, ["z", "s"], [zeros, specials])
        lines = (tmp_path / "new.csv").read_text().split("\n")
        assert [line.split(",")[0] for line in lines[1:8]] == ["0.0"] * 3 + ["-0.0"] * 3 + ["0.0"]

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1100, 1537])
    def test_mixed_columns_with_runs(self, tmp_path, n):
        rng = np.random.default_rng(n)
        columns = [
            np.array(self.runs(rng, range(-3, 4), n), dtype=np.int64),
            np.array(self.runs(rng, self.SPECIAL, n)),
            np.array(self.runs(rng, ["a", "bc", "-0.0"], n)),
            np.array(self.runs(rng, [0.5, -0.0, 0.0, 2.5e-8], n), dtype=np.float32),
            np.array(self.runs(rng, [0, 7, 255], n), dtype=np.uint8),
            np.array(self.runs(rng, [True, False], n)),
            rng.standard_normal(n),
        ]
        self.assert_same_bytes(tmp_path, list("abcdefg"), columns)

    def test_runs_across_block_boundaries(self, tmp_path):
        # runs that end at, start at and straddle rows 512 and 1024
        floats = np.full(1300, 0.1)
        floats[500:530] = -0.0
        floats[530:1024] = math.nan
        floats[1024:1025] = 0.0
        floats[1010:1040] = math.inf
        ints = np.repeat(np.arange(13), 100)
        text = np.where(np.arange(1300) < 700, "lo", "hi")
        self.assert_same_bytes(tmp_path, ["f", "i", "s"], [floats, ints, text])

    @pytest.mark.parametrize("table", ["one row", "all equal", "all distinct", "pairs"])
    def test_tables_of_one_kind(self, tmp_path, table):
        n = 1 if table == "one row" else 1100
        if table == "all distinct":
            columns = [np.arange(n), np.linspace(-1.0, 1e16, n), np.arange(n).astype(str)]
        elif table == "pairs":
            # half as many runs as cells, and one run more
            columns = [np.arange(n) // 2, np.repeat([0.0, -0.0], n // 2),
                       np.r_[0.5, np.arange(n - 1) // 2 + 0.25]]
        else:
            columns = [np.full(n, -5), np.full(n, -0.0), np.full(n, "x")]
        self.assert_same_bytes(tmp_path, ["i", "f", "s"], columns)

    def test_open_is_previous_close_across_blocks(self, tmp_path):
        # each open repeats the close above it, also across rows 511/512 and
        # 1023/1024; signed zeros beside them part a writer that compares values
        rng = np.random.default_rng(5)
        closes = 3000 * np.exp(np.cumsum(rng.normal(0, 0.01, 1100)))
        closes[[300, 511, 1023]] = [0.0, -0.0, -0.0]
        opens = np.r_[3000.0, closes[:-1]]
        lows = np.minimum(opens, closes)
        lows[[200, 600, 1030]] = 0.0
        timestamps = 1609459200 + HOUR * np.arange(1100)
        self.assert_same_bytes(tmp_path, ["timestamp", "open", "low", "close"],
                               [timestamps, opens, lows, closes])
        rows = (tmp_path / "new.csv").read_text().split("\n")
        assert rows[512].split(",")[3] == rows[513].split(",")[1] == "-0.0"
        assert rows[1024].split(",")[3] == rows[1025].split(",")[1] == "-0.0"

    def test_int_column_of_a_float_columns_bits(self, tmp_path):
        floats = np.array([1.0, -0.0, 0.5, 1.0, math.nan, 3000.25] * 100)
        self.assert_same_bytes(tmp_path, ["f", "i"], [floats, floats.view(np.int64)])
        assert (tmp_path / "new.csv").read_text().split("\n")[1] == "1.0,4607182418800017408"

    def test_float32_beside_int32_and_uint32_of_its_bits(self, tmp_path):
        rng = np.random.default_rng(6)
        f32 = rng.normal(0, 100, 700).astype(np.float32)
        f32[::7] = -0.0
        f32[::11] = 1.5
        self.assert_same_bytes(tmp_path, ["f", "i", "u"],
                               [f32, f32.view(np.int32), f32.view(np.uint32)])

    def test_signed_zeros_and_nan_payloads_across_one_row(self, tmp_path):
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
        row = [0.0, -0.0, nans[0], nans[1], -0.0, 0.0]
        columns = [np.array([v, row[(j + 1) % len(row)]] * 300) for j, v in enumerate(row)]
        self.assert_same_bytes(tmp_path, list("abcdef"), columns)
        assert (tmp_path / "new.csv").read_text().split("\n")[1] == "0.0,-0.0,nan,nan,-0.0,0.0"

    def test_zero_rows_write_the_header_only(self, tmp_path):
        columns = [np.array([], dtype=np.int64), np.array([]), np.array([], dtype=str)]
        self.assert_same_bytes(tmp_path, ["i", "f", "s"], columns)
        assert (tmp_path / "new.csv").read_bytes() == b"i,f,s\r\n"

    @pytest.mark.parametrize("header, lengths", [
        (["a", "b", "c"], [3, 5]),
        (["a"], [3, 3]),
        (["a", "b"], [3, 5]),
        (["a", "b", "c"], [4, 4, 0]),
    ])
    def test_rejects_malformed_calls(self, tmp_path, header, lengths):
        # zip would cut every column to the shortest, and the header to the columns
        columns = [np.arange(n, dtype=float) for n in lengths]
        with pytest.raises(ValueError):
            data.write_csv(tmp_path / "t.csv", header, columns)
        assert not (tmp_path / "t.csv").exists()

    def test_repr_called_once_per_distinct_pattern_of_a_group(self, tmp_path, monkeypatch):
        series = data.gbm_generate(seed=3, n_hours=2000, p_start=3000.0, vol=0.01)
        calls = []
        monkeypatch.setattr(data, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        series.to_csv(tmp_path / "candles.csv")
        groups = [[series.timestamps], [series.opens, series.highs, series.lows, series.closes]]
        expected = sum(
            np.unique(np.stack([c[lo:lo + 512] for c in group]).view(np.uint64)).size
            for lo in range(0, len(series), 512) for group in groups)
        assert len(calls) == expected < 5 * len(series)
        write_rows(tmp_path / "ref.csv", ["timestamp", "open", "high", "low", "close"],
                   [series.timestamps, series.opens, series.highs, series.lows, series.closes])
        assert (tmp_path / "candles.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
