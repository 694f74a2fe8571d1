"""Seeded input generation and the independent resample oracle.

Everything here is the benchmark's own code: the program under test only
ever sees the files written by these functions, so changing activelp cannot
change the inputs of a seed.
"""

from __future__ import annotations

import numpy as np

HOUR = 3600
START_TS = 1609459200  # 2021-01-01T00:00:00Z, an hour boundary


def gbm_candles(rng, n_hours: int, p_start: float = 3000.0, vol: float = 0.005):
    """Hourly GBM candles as columns (ts, open, high, low, close).

    Each hour is four log-normal sub-steps; open is the previous close, so
    the OHLC ordering holds by construction.
    """
    z = rng.standard_normal((n_hours - 1, 4)) * (vol / 2.0) - vol * vol / 8.0
    path = p_start * np.exp(np.cumsum(z.ravel())).reshape(n_hours - 1, 4)
    closes = np.concatenate([[p_start], path[:, -1]])
    opens = np.concatenate([[p_start], closes[:-1]])
    highs = np.concatenate([[p_start], np.maximum(opens[1:], path.max(axis=1))])
    lows = np.concatenate([[p_start], np.minimum(opens[1:], path.min(axis=1))])
    ts = START_TS + HOUR * np.arange(n_hours, dtype=np.int64)
    return ts, opens, highs, lows, closes


def write_candles(path, ts, opens, highs, lows, closes):
    table = np.column_stack([opens, highs, lows, closes])
    with open(path, "w") as fh:
        fh.write("timestamp,open,high,low,close\n")
        for t, row in zip(ts.tolist(), table.tolist()):
            fh.write(f"{t},{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}\n")


def trades(rng, n_hours: int, per_hour: int, p_start: float = 3000.0):
    """A sorted trade tape (ts, price, volume) over n_hours.

    Trade counts are Poisson(per_hour), except that about one hour in thirty
    has no trade and one in thirty a single trade, so the resampler's
    forward-fill and one-trade paths are both exercised. The first and last
    hour always trade, which fixes the candle count at n_hours.
    """
    counts = rng.poisson(per_hour, n_hours)
    kind = rng.integers(0, 30, n_hours)
    counts[kind == 0] = 0
    counts[kind == 1] = 1
    counts[0] = max(counts[0], 1)
    counts[-1] = max(counts[-1], 1)
    n = int(counts.sum())
    hour = np.repeat(np.arange(n_hours, dtype=np.int64), counts)
    # offsets stay below an hour, so sorting keeps every trade in its hour
    ts = np.sort(START_TS + hour * HOUR + rng.integers(0, HOUR, n))
    steps = rng.standard_normal(n) * (0.005 / np.sqrt(max(per_hour, 1)))
    prices = p_start * np.exp(np.cumsum(steps))
    volumes = rng.exponential(1.0, n)
    return ts, prices, volumes


def write_trades(path, ts, prices, volumes):
    with open(path, "w") as fh:
        fh.write("timestamp,price,volume\n")
        for t, p, v in zip(ts.tolist(), prices.tolist(), volumes.tolist()):
            fh.write(f"{t},{p!r},{v!r}\n")


def resample_oracle(ts, prices, volumes):
    """Per-hour OHLCV computed hour by hour with numpy slices.

    Empty hours repeat the previous close with zero volume; a single-trade
    hour has open == high == low == close == that trade's price.
    """
    hours = ts // HOUR
    first, last = int(hours[0]), int(hours[-1])
    n = last - first + 1
    bounds = np.searchsorted(hours, np.arange(first, last + 2))
    out = np.empty((n, 6))
    prev_close = None
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            bucket = prices[lo:hi]
            o, h, l, c = bucket[0], bucket.max(), bucket.min(), bucket[-1]
            vol = float(volumes[lo:hi].sum())
            prev_close = c
        else:
            o = h = l = c = prev_close
            vol = 0.0
        out[i] = ((first + i) * HOUR, o, h, l, c, vol)
    return out
