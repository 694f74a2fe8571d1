"""Concentrated-liquidity pool math: scalar tick math and the array pool
kernel (range ticks, liquidity, fees, LVR).

Follows the Uniswap v3 conventions: prices live on the tick grid
p(i) = 1.0001**i, a range position holds real reserves

    x = L * (1/sqrt(p) - 1/sqrt(p_upper)),  y = L * (sqrt(p) - sqrt(p_lower))

for p inside [p_lower, p_upper], clamped at the endpoints outside.
All monetary quantities are denominated in the numeraire token Y and
computed in 64-bit floats; this is a research simulator, not a chain
client, so no Q64.96 fixed-point emulation.

The tick math is scalar: `math.log`/`math.exp` and `np.log`/`np.exp` are not
guaranteed to agree bitwise. Its array form `tick_indices` floors numpy's
log ratio only where a few-ulp error cannot change the result, and uses the
scalar `tick_index` for the prices inside the band where it could. The
kernel is elementwise over numpy arrays (or scalars) and uses only +, -, *,
/ and sqrt, which are correctly rounded either way, so it matches the scalar
oracles in `tests/amm_oracle.py` bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Correctly rounded double of ln(1.0001). math.log(1.0001) operates on the
# rounded float input and is off by ~1e-13 relative, which compounds to
# ~2e-12 price error at |tick| = 200000.
_LN_TICK = 9.999500033330834e-05

# Relative slack used to defuse floating-point misclassification right at a
# tick boundary (log/exp round-trips are not exact).
_TICK_GUARD = 1e-12

# Half-width of the band around integer log ratios in which `tick_indices`
# defers to the scalar `tick_index`.
_TICK_BAND = 1e-6


def price_at_tick(i: int) -> float:
    """Price at tick index i, i.e. 1.0001**i."""
    return math.exp(i * _LN_TICK)


def tick_index(price: float) -> int:
    """Largest tick index i such that 1.0001**i <= price.

    Raises ValueError for non-positive prices.
    """
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    i = math.floor(math.log(price) / _LN_TICK)
    # floor() on the rounded log ratio can land one tick low; bump if the
    # next tick is still at or below the price (within guard slack).
    if price_at_tick(i + 1) <= price * (1.0 + _TICK_GUARD):
        i += 1
    return i


def tick_indices(prices) -> np.ndarray:
    """`tick_index` of every price, as an int64 array.

    Outside the band of `_TICK_BAND` around an integer, the floor of the
    log ratio cannot flip under a few-ulp log error, and the scalar's bump
    cannot fire: the next tick sits at least 1e-10 relative above the
    price. Prices inside the band go through `tick_index`, as does the
    first non-positive or non-finite price, so that it raises as the scalar
    does.
    """
    prices = np.asarray(prices, dtype=np.float64)
    bad = ~((prices > 0) & (prices < math.inf))
    if bad.any():
        tick_index(float(prices[bad][0]))
    ratio = np.log(prices) / _LN_TICK
    ticks = np.floor(ratio).astype(np.int64)
    near = np.abs(ratio - np.round(ratio)) < _TICK_BAND
    if near.any():
        ticks[near] = [tick_index(p) for p in prices[near].tolist()]
    return ticks


@dataclass(frozen=True)
class PoolSpec:
    """Immutable pool parameters: fee rate, tick spacing, gas cost per transaction."""

    fee_rate: float
    tick_spacing: int
    gas_cost: float

    def __post_init__(self):
        if not 0.0 < self.fee_rate < 1.0:
            raise ValueError(f"fee_rate must be in (0, 1), got {self.fee_rate}")
        spacing = self.tick_spacing
        if isinstance(spacing, bool) or not isinstance(spacing, (int, np.integer)) or spacing < 1:
            raise ValueError(f"tick_spacing must be an integer >= 1, got {spacing!r}")
        if not 0 <= self.gas_cost < math.inf:
            raise ValueError(f"gas_cost must be finite and >= 0, got {self.gas_cost}")


def align_range(center_tick, half_width_ticks: int, spacing: int):
    """Symmetric tick ranges around integer center ticks, widened outward to
    the spacing grid: (lower, upper)."""
    if spacing < 1:
        raise ValueError(f"tick spacing must be >= 1, got {spacing}")
    if half_width_ticks < spacing:
        raise ValueError(
            f"half width {half_width_ticks} is below tick spacing {spacing}"
        )
    lower = (center_tick - half_width_ticks) // spacing * spacing
    upper = -(-(center_tick + half_width_ticks) // spacing) * spacing
    return lower, upper


def liquidity_from_x(x0, price, upper_price):
    """Liquidity of positions funded with x0 risky tokens at `price`.

    Inverts the real-reserve formula x = L*(1/sqrt(p) - 1/sqrt(p_upper));
    each price must sit below its upper bound, which the caller checks.
    """
    return x0 / (1.0 / np.sqrt(price) - 1.0 / np.sqrt(upper_price))


def fee_for_move(liquidity, fee_rate: float, p, q, lower_price, upper_price):
    """Swap fees earned over price moves p -> q, in numeraire terms.

    Each move is clipped to [lower_price, upper_price]; only the in-range
    portion earns fees. Upward moves earn delta/(1-delta) * L * (sqrt(b) -
    sqrt(a)) in Y directly; downward moves earn delta/(1-delta) * L *
    (1/sqrt(b) - 1/sqrt(a)) in X, valued at the final clipped price b.
    Clamping both endpoints (rather than intersecting intervals) makes the
    fee telescope exactly across any decomposition of a monotone move.
    """
    factor = fee_rate / (1.0 - fee_rate) * liquidity
    a = np.minimum(np.maximum(p, lower_price), upper_price)
    b = np.minimum(np.maximum(q, lower_price), upper_price)
    up = factor * (np.sqrt(b) - np.sqrt(a))
    down = factor * (1.0 / np.sqrt(b) - 1.0 / np.sqrt(a)) * b
    return np.where(b > a, up, np.where(b < a, down, 0.0))


def lvr_penalty(liquidity, sigma, p, lower_price, upper_price):
    """Instantaneous loss-versus-rebalancing cost L*sigma^2*sqrt(p)/4.

    Zero while the price sits outside the active range: the position value is
    linear in price there, so there is no adverse-selection convexity cost.
    """
    in_range = (lower_price <= p) & (p <= upper_price)
    return np.where(in_range, liquidity * sigma * sigma * np.sqrt(p) / 4.0, 0.0)
