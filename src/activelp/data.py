"""Market data: hourly candle series, CSV ingestion, trade resampling, GBM fixtures."""

from __future__ import annotations

import csv
import math
import warnings
from datetime import datetime, timezone
from functools import partial

import numpy as np

HOUR = 3600
# Data rows per block of the csv reader, which reads only the files that
# numpy's C reader does not take (see _read_columns). Cell strings cost many
# times the arrays parsed from them, so it holds one block of them at a time.
_BLOCK_ROWS = 128
_CSV_BLOCK = 512  # rows per write in write_csv
_PRICES = ("open", "high", "low", "close")


class DataError(Exception):
    """Raised for malformed, gapped, or otherwise invalid market data."""


class PriceSeries:
    """Gap-free hourly candle series backed by numpy arrays."""

    def __init__(self, timestamps, opens, highs, lows, closes, volumes=None):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.opens = np.asarray(opens, dtype=float)
        self.highs = np.asarray(highs, dtype=float)
        self.lows = np.asarray(lows, dtype=float)
        self.closes = np.asarray(closes, dtype=float)
        self.volumes = None if volumes is None else np.asarray(volumes, dtype=float)
        self._validate()

    def _validate(self):
        n = self.timestamps.size
        if n == 0:
            raise DataError("empty price series")
        for arr, name in ((self.opens, "open"), (self.highs, "high"),
                          (self.lows, "low"), (self.closes, "close")):
            if arr.size != n:
                raise DataError(f"{name} column length {arr.size} != {n}")
        if self.volumes is not None and self.volumes.size != n:
            raise DataError("volume column length mismatch")
        finite = (np.isfinite(self.opens) & np.isfinite(self.highs)
                  & np.isfinite(self.lows) & np.isfinite(self.closes))
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataError(f"non-finite price at row {i} (ts={self.timestamps[i]})")
        if np.any(self.lows <= 0):
            i = int(np.argmax(self.lows <= 0))
            raise DataError(f"non-positive price at row {i} (ts={self.timestamps[i]})")
        oc_min = np.minimum(self.opens, self.closes)
        oc_max = np.maximum(self.opens, self.closes)
        bad = (self.lows > oc_min) | (oc_max > self.highs)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DataError(f"OHLC ordering violated at row {i} (ts={self.timestamps[i]})")
        if n > 1:
            gaps = np.diff(self.timestamps)
            if np.any(gaps != HOUR):
                i = int(np.argmax(gaps != HOUR))
                missing = _missing_hours(int(self.timestamps[i]), int(self.timestamps[i + 1]))
                raise DataError(
                    f"series is not hourly at row {i}: missing {missing}"
                )

    def __len__(self):
        return int(self.timestamps.size)

    def slice(self, start: int, stop: int) -> "PriceSeries":
        if not (0 <= start < stop <= len(self)):
            raise DataError(f"slice [{start}, {stop}) out of bounds for length {len(self)}")
        vols = None if self.volumes is None else self.volumes[start:stop].copy()
        return PriceSeries(
            self.timestamps[start:stop].copy(), self.opens[start:stop].copy(),
            self.highs[start:stop].copy(), self.lows[start:stop].copy(),
            self.closes[start:stop].copy(), vols,
        )

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        if len(self) != len(other):
            return False
        same = (np.array_equal(self.timestamps, other.timestamps)
                and np.array_equal(self.opens, other.opens)
                and np.array_equal(self.highs, other.highs)
                and np.array_equal(self.lows, other.lows)
                and np.array_equal(self.closes, other.closes))
        if not same:
            return False
        if (self.volumes is None) != (other.volumes is None):
            return False
        return self.volumes is None or np.array_equal(self.volumes, other.volumes)

    def to_csv(self, path):
        cols = [self.timestamps, self.opens, self.highs, self.lows, self.closes]
        if self.volumes is not None:
            cols.append(self.volumes)
        write_csv(path, ["timestamp", *_PRICES, "volume"][:len(cols)], cols)


def write_csv(path, header, columns):
    """Write the header, then one CRLF row per index of the array columns'
    `.tolist()` values, unquoted: numbers as repr(), the text of str() one
    call sooner, other cells as str(). Rows go out a block per write.

    Within a block, the numeric columns of one dtype are formatted together,
    with one repr() per distinct bit pattern among their cells: `0.0` and
    `-0.0`, or an int64 and a float64 of the same bits, never share a text.
    The bytes are those of one repr() per cell. Raises ValueError unless
    there is at least one column, one header name per column and the
    columns are of one length."""
    if not columns:
        raise ValueError("a table needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    groups = {}
    for j, c in enumerate(columns):
        if c.dtype.kind in "iuf":
            groups.setdefault(c.dtype, []).append(j)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = [c[lo:lo + _CSV_BLOCK] for c in columns]
            cells = [None if b.dtype.kind in "iuf" else map(str, b.tolist()) for b in block]
            for js in groups.values():
                for j, texts in zip(js, _repr_cells(np.stack([block[j] for j in js]))):
                    cells[j] = texts
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _repr_cells(block):
    """repr() of each cell of a 2-d numeric block, as a list per row, with
    repr() called once per distinct bit pattern. Each cell finds its
    pattern by a binary search: on blocks of long runs, such as passive
    traces, numpy's argsort (which np.unique uses) costs ten times its sort."""
    bits = block.view(f"u{block.itemsize}").ravel()
    ordered = np.sort(bits)
    patterns = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    texts = np.fromiter(map(repr, patterns.view(block.dtype).tolist()), dtype=object,
                        count=patterns.size)
    return texts[np.searchsorted(patterns, bits)].reshape(block.shape).tolist()


def _missing_hours(ts_before: int, ts_after: int, limit: int = 5) -> str:
    hours = list(range(ts_before + HOUR, ts_after, HOUR))
    shown = ", ".join(_iso(t) for t in hours[:limit])
    if len(hours) > limit:
        shown += f", ... ({len(hours)} hours total)"
    return shown or f"(timestamps regress: {ts_before} -> {ts_after})"


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_timestamp(raw, row: int) -> int:
    if raw is None or raw.strip() == "":
        raise DataError(f"row {row}: missing timestamp")
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        text = raw.replace("Z", "+00:00")
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {raw!r}") from None


def _parse_float(raw, row: int, col: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataError(f"row {row}: cannot parse {col} value {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: non-finite {col} value {raw!r}")
    return value


def _columns(path, header, required):
    """Index of each required column, and of the volume column if the header
    has one. As with csv.DictReader, names are matched after strip().lower(),
    and a name given twice reads the column that DictReader's re-keyed dict
    would."""
    if header is None:
        raise DataError(f"{path}: empty file")
    last = {name: j for j, name in enumerate(header)}
    index = {name.strip().lower(): j for name, j in last.items()}
    for col in required:
        if col not in index:
            raise DataError(f"{path}: missing column {col!r}")
    return {col: index[col] for col in (*required, "volume") if col in index}


def _plain(path) -> bool:
    r"""Whether numpy's C reader parses every cell of the file as csv, int()
    and float() do. The file must be ASCII without \x1c-\x1f: numpy reads
    some other characters as digits, and strips these as spaces. It must
    hold no quote and no field longer than csv.field_size_limit(), which
    numpy does not enforce. Without quotes every field ends at a comma or a
    line end, so a field that long spans a whole chunk of at most half the
    limit that holds neither."""
    # capped, so that a raised limit does not read the whole file at once
    size = max(1, min(csv.field_size_limit(), 1 << 17) // 2)
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, size), b""):
            if (not chunk.isascii() or any(b in chunk for b in b'"\x1c\x1d\x1e\x1f')
                    or len(chunk) == size and not any(b in chunk for b in b",\r\n")):
                return False
    return True


def _read_columns(path, required):
    """The columns of `_columns`, each whole, parsed by numpy's C reader:
    timestamps as int64, the rest as float. None unless the file is plain and
    the reader takes every row without a warning; `_parse_rows` then reads
    the file and reports its first bad row."""
    if not _plain(path):
        return None
    with open(path, newline="") as fh:
        cols = _columns(path, next(csv.reader(fh), None), required)
        dtype = [(col, np.int64 if col == "timestamp" else float) for col in cols]
        try:
            with warnings.catch_warnings():
                # numpy warns on a body with no rows; older numpy warns on a float in an int column
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                   usecols=list(cols.values()), ndmin=1)
        except (ValueError, Warning):
            return None
    # each column contiguous and on its own, as the csv reader's are
    return [table[col].copy() for col in cols]


def _blocks(reader):
    """Lists of up to _BLOCK_ROWS non-blank rows. Rows read before a line
    csv rejects come out before its csv.Error, so an earlier bad row is
    still reported first."""
    block = []
    try:
        for r in reader:
            if r:
                block.append(r)
                if len(block) == _BLOCK_ROWS:
                    yield block
                    block = []
    except csv.Error:
        if block:
            yield block
        raise
    if block:
        yield block


def _int64(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # the loader's int64 conversion raises it once every row is checked
        return np.array(values, dtype=object)


def _parse_rows(path, required, parse_row):
    """The columns of `_columns`, read by the csv reader a block of rows at a
    time and parsed row by row, each row's checks in order, so the first bad
    row raises its error; and whether any volume cell is non-empty.

    `parse_row(cells, row)` gets a row's cells in column order, strings or
    None where the row is too short, and its number (the header is row 1).
    As with csv.DictReader, blank lines are skipped without a number."""
    blocks, has_volume = [], False
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            wanted = _columns(path, next(reader, None), required)
            row = 2
            for block in _blocks(reader):
                cells = {col: [r[j] if j < len(r) else None for r in block]
                         for col, j in wanted.items()}
                rows = [parse_row(values, row + k)
                        for k, values in enumerate(zip(*cells.values()))]
                ts, *rest = zip(*rows)
                blocks.append((_int64(ts), *(np.array(col, dtype=float) for col in rest)))
                has_volume = has_volume or any(cells.get("volume", ()))
                row += len(block)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not blocks:
        raise DataError(f"{path}: no data rows")
    # a closed file still holds its last chunk; drop it and the last
    # block's rows before the join, which is when the most is live
    del fh, reader, block
    cols = [np.concatenate(col) for col in zip(*blocks)]
    cols[0] = cols[0].astype(np.int64, copy=False)
    return cols, has_volume


def _candle_row(cells, row):
    ts = _parse_timestamp(cells[0], row)
    o, h, lo, c = (_parse_float(raw, row, col) for raw, col in zip(cells[1:5], _PRICES))
    if min(o, h, lo, c) <= 0:
        raise DataError(f"row {row}: non-positive price")
    vol = 0.0
    if len(cells) > 5 and cells[5] not in (None, ""):
        vol = _parse_float(cells[5], row, "volume")
    if not (lo <= min(o, c) <= max(o, c) <= h):
        raise DataError(f"row {row}: candle at {ts} violates OHLC ordering")
    return ts, o, h, lo, c, vol


def _clean_candles(o, h, lo, c, *volume) -> bool:
    """Whether every row passes `_candle_row`'s checks."""
    return (all(np.isfinite(col).all() for col in (o, h, lo, c, *volume))
            and (lo > 0).all() and (lo <= np.minimum(o, c)).all()
            and (np.maximum(o, c) <= h).all())


def load_candles(path, fill_gaps: bool = False) -> PriceSeries:
    """Load an hourly candle CSV (timestamp,open,high,low,close[,volume]).

    Timestamps may be epoch seconds or ISO-8601. Gaps are an error unless
    fill_gaps is set, in which case missing hours are forward-filled with
    flat candles at the previous close.
    """
    required = ("timestamp", *_PRICES)
    cols = _read_columns(path, required)
    if cols is None or not _clean_candles(*cols[1:]):
        cols, has_volume = _parse_rows(path, required, _candle_row)
        if not has_volume:
            del cols[5:]
    ts, opens, highs, lows, closes, *volumes = cols
    del cols

    if fill_gaps:
        steps = np.diff(ts)
        back = steps <= 0
        if back.any():
            raise DataError(f"timestamps not increasing at {_iso(int(ts[np.argmax(back) + 1]))}")
        # each row, then flat candles at its close for the hours before the next row
        reps = np.append((steps - 1) // HOUR, 0) + 1
        src = np.repeat(np.arange(ts.size), reps)
        offset = np.arange(src.size) - (np.cumsum(reps) - reps)[src]
        given = offset == 0
        ts = ts[src] + HOUR * offset
        closes = closes[src]
        opens, highs, lows = (np.where(given, col[src], closes) for col in (opens, highs, lows))
        volumes = [np.where(given, v[src], 0.0) for v in volumes]

    return PriceSeries(ts, opens, highs, lows, closes, volumes[0] if volumes else None)


def resample_hourly(timestamps, prices, volumes=None) -> PriceSeries:
    """Bucket raw trades into hourly OHLC candles.

    Empty hours between trades are forward-filled with flat candles at the
    previous close (an AMM price is static without swaps).
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    prices = np.asarray(prices, dtype=float)
    if timestamps.size == 0:
        raise DataError("no trades to resample")
    if timestamps.size != prices.size:
        raise DataError("timestamp/price length mismatch")
    if np.any(np.diff(timestamps) < 0):
        raise DataError("trade timestamps must be non-decreasing")
    if np.any(prices <= 0):
        i = int(np.argmax(prices <= 0))
        raise DataError(f"non-positive trade price at row {i}")
    if volumes is not None:
        # contiguous, so each hour's slice sums in the order of a masked copy
        volumes = np.ascontiguousarray(volumes, dtype=float)
        if volumes.size != prices.size:
            raise DataError("volume length mismatch")

    hours = timestamps // HOUR
    nan = np.isnan(prices)
    if nan.any():
        raise DataError(f"candle at {int(hours[np.argmax(nan)]) * HOUR} violates OHLC ordering")
    first = int(hours[0])
    bounds = np.searchsorted(hours, np.arange(first, int(hours[-1]) + 2))
    traded = bounds[1:] > bounds[:-1]
    starts, stops = bounds[:-1][traded], bounds[1:][traded]
    # every hour reads the last traded hour at or before it
    last = np.cumsum(traded) - 1
    closes = prices[stops - 1][last]

    def fill(per_traded_hour, empty):
        return np.where(traded, per_traded_hour[last], empty)

    opens = fill(prices[starts], closes)
    highs = fill(np.maximum.reduceat(prices, starts), closes)
    lows = fill(np.minimum.reduceat(prices, starts), closes)
    vols = None
    if volumes is not None:
        # slice sums: np.add.reduceat adds in another order
        sums = [volumes[a:b].sum() for a, b in zip(starts.tolist(), stops.tolist())]
        vols = fill(np.array(sums), 0.0)
    ts = HOUR * np.arange(first, first + traded.size, dtype=np.int64)
    return PriceSeries(ts, opens, highs, lows, closes, vols)


def _trade_row(cells, row):
    ts = _parse_timestamp(cells[0], row)
    price = _parse_float(cells[1], row, "price")
    if price <= 0:
        raise DataError(f"row {row}: non-positive price")
    if len(cells) == 2:
        return ts, price
    return ts, price, _parse_float(cells[2] or "0", row, "volume")


def load_trades(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Load a raw trade CSV (timestamp,price[,volume]) as arrays."""
    required = ("timestamp", "price")
    cols = _read_columns(path, required)
    if cols is None or not (all(np.isfinite(col).all() for col in cols[1:])
                            and (cols[1] > 0).all()):
        cols, _ = _parse_rows(path, required, _trade_row)
    ts, prices, *volumes = cols
    return ts, prices, volumes[0] if volumes else None


def gbm_generate(
    seed: int,
    n_hours: int,
    p_start: float,
    drift: float = 0.0,
    vol: float = 0.0,
    start_ts: int = 1609459200,
) -> PriceSeries:
    """Synthetic hourly series following geometric Brownian motion.

    Hourly log returns are N(drift - vol^2/2, vol^2); each hour is built from
    four intra-hour sub-samples so the OHLC extremes are honest. Candle 0 is
    flat at p_start, so closes[t] = p_start * exp(drift*t) exactly when vol=0.
    """
    if n_hours < 1:
        raise DataError(f"n_hours must be >= 1, got {n_hours}")
    if p_start <= 0:
        raise DataError(f"p_start must be positive, got {p_start}")
    if vol < 0:
        raise DataError(f"vol must be >= 0, got {vol}")
    rng = np.random.default_rng(seed)
    n_sub = 4
    step_drift = (drift - 0.5 * vol * vol) / n_sub
    step_vol = vol / math.sqrt(n_sub)

    ts = start_ts + HOUR * np.arange(n_hours, dtype=np.int64)
    # one draw gives the same stream as n_hours - 1 draws of n_sub
    z = rng.standard_normal((n_hours - 1, n_sub))
    # an extreme drift or vol overflows to inf or nan, which PriceSeries
    # rejects as a DataError; numpy's warnings would only print
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(np.cumsum(step_drift + step_vol * z, axis=1))
        # each close compounds the previous one, in order
        closes = np.multiply.accumulate(np.concatenate([[p_start], growth[:, -1]]))
        opens = np.concatenate([[p_start], closes[:-1]])
        paths = opens[1:, None] * growth
    # fmax/fmin keep the open when a path is nan, as Python's max/min did
    highs = np.concatenate([[p_start], np.fmax(opens[1:], paths.max(axis=1))])
    lows = np.concatenate([[p_start], np.fmin(opens[1:], paths.min(axis=1))])
    return PriceSeries(ts, opens, highs, lows, closes)
