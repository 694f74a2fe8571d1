"""Scalar pool formulas: the reference the `activelp.amm` array kernel is
tested against.

One position at a time, in plain `math`: aligning a range, sizing it from
x0, its reserves, value and impermanent loss, and the fee and LVR of one
price move. `tests/stepper.py` scores episodes with these, and
`tests/test_amm.py` checks them against their own derivations and checks
the kernel against them bitwise. From `activelp.amm` this module takes only
the scalar tick math (`tick_index`, `price_at_tick`) and `PoolSpec`; a
packaging test keeps it that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from activelp.amm import price_at_tick


def align_range(center_tick: int, half_width_ticks: int, spacing: int) -> tuple[int, int]:
    """Symmetric tick range around center_tick, widened outward to the spacing grid."""
    if spacing < 1:
        raise ValueError(f"tick spacing must be >= 1, got {spacing}")
    if half_width_ticks < spacing:
        raise ValueError(
            f"half width {half_width_ticks} is below tick spacing {spacing}"
        )
    lower = math.floor((center_tick - half_width_ticks) / spacing) * spacing
    upper = math.ceil((center_tick + half_width_ticks) / spacing) * spacing
    return lower, upper


def liquidity_from_x(x0: float, price: float, upper_price: float) -> float:
    """Liquidity of a position funded with x0 risky tokens at the given price.

    Inverts the real-reserve formula x = L*(1/sqrt(p) - 1/sqrt(p_upper)).
    Requires price < upper_price (otherwise the position has no X side).
    """
    if x0 <= 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    if price >= upper_price:
        raise ValueError(
            f"price {price} must sit below the upper bound {upper_price}"
        )
    return x0 / (1.0 / math.sqrt(price) - 1.0 / math.sqrt(upper_price))


@dataclass(frozen=True)
class Reserves:
    x: float
    y: float


@dataclass(frozen=True)
class Position:
    """A live range position plus its entry snapshot.

    entry_x/entry_y are the token amounts deposited at entry_price; they are
    the hold-portfolio baseline for impermanent loss.
    """

    lower_tick: int
    upper_tick: int
    liquidity: float
    entry_price: float
    entry_x: float
    entry_y: float

    def __post_init__(self):
        if self.lower_tick >= self.upper_tick:
            raise ValueError(
                f"lower_tick {self.lower_tick} must be below upper_tick {self.upper_tick}"
            )
        if self.liquidity < 0:
            raise ValueError(f"liquidity must be >= 0, got {self.liquidity}")
        expect = reserves(self, self.entry_price)
        for got, want in ((self.entry_x, expect.x), (self.entry_y, expect.y)):
            if abs(got - want) > 1e-9 * max(abs(want), 1e-30):
                raise ValueError(
                    f"entry reserves ({self.entry_x}, {self.entry_y}) are inconsistent "
                    f"with liquidity {self.liquidity} at price {self.entry_price}"
                )

    @property
    def lower_price(self) -> float:
        return price_at_tick(self.lower_tick)

    @property
    def upper_price(self) -> float:
        return price_at_tick(self.upper_tick)

    @classmethod
    def open(cls, lower_tick: int, upper_tick: int, price: float, x0: float) -> "Position":
        """Open a position funded with x0 risky tokens at the current price.

        The Y deposit follows from the liquidity level; price must lie inside
        [p(lower_tick), p(upper_tick)).
        """
        p_l = price_at_tick(lower_tick)
        p_u = price_at_tick(upper_tick)
        if price < p_l:
            raise ValueError(
                f"price {price} below range [{p_l}, {p_u}]; cannot size from x0"
            )
        liq = liquidity_from_x(x0, price, p_u)
        y0 = liq * (math.sqrt(price) - math.sqrt(p_l))
        return cls(
            lower_tick=lower_tick,
            upper_tick=upper_tick,
            liquidity=liq,
            entry_price=price,
            entry_x=x0,
            entry_y=y0,
        )


def range_reserves(liquidity: float, price: float,
                   lower_price: float, upper_price: float) -> Reserves:
    """Real token balances of a range position, clamped at the endpoints."""
    sp = math.sqrt(min(max(price, lower_price), upper_price))
    su = math.sqrt(upper_price)
    sl = math.sqrt(lower_price)
    x = liquidity * (1.0 / sp - 1.0 / su)
    y = liquidity * (sp - sl)
    return Reserves(x=x, y=y)


def reserves(pos: Position, price: float) -> Reserves:
    """Real token balances of the position at the given price."""
    return range_reserves(pos.liquidity, price, pos.lower_price, pos.upper_price)


def position_value(pos: Position, price: float) -> float:
    """Mark-to-market value x*p + y of the position in numeraire terms."""
    r = reserves(pos, price)
    return r.x * price + r.y


def impermanent_loss(pos: Position, price: float) -> float:
    """Relative shortfall of the position versus holding the entry tokens.

    Returns V(p)/W(p) - 1 with hold value W(p) = entry_x*p + entry_y; <= 0
    for any position entered in range, 0 at the entry price.
    """
    hold = pos.entry_x * price + pos.entry_y
    if hold <= 0:
        raise ValueError(f"hold value is not positive at price {price}")
    return position_value(pos, price) / hold - 1.0


def fee_for_move(
    liquidity: float,
    fee_rate: float,
    p_from: float,
    p_to: float,
    lower_price: float,
    upper_price: float,
) -> float:
    """Swap fee earned by a position over one price move, in numeraire terms.

    The move is clipped to [lower_price, upper_price]; only the in-range
    portion earns fees. Upward moves earn delta/(1-delta) * L * (sqrt(b) -
    sqrt(a)) in Y directly; downward moves earn delta/(1-delta) * L *
    (1/sqrt(b) - 1/sqrt(a)) in X, valued at the final clipped price b.
    Clamping both endpoints (rather than intersecting intervals) makes the
    fee telescope exactly across any decomposition of a monotone move.
    """
    if liquidity < 0:
        raise ValueError(f"liquidity must be >= 0, got {liquidity}")
    if p_from <= 0 or p_to <= 0:
        raise ValueError("prices must be positive")
    factor = fee_rate / (1.0 - fee_rate) * liquidity
    a = min(max(p_from, lower_price), upper_price)
    b = min(max(p_to, lower_price), upper_price)
    if b == a:
        return 0.0
    if b > a:
        return factor * (math.sqrt(b) - math.sqrt(a))
    return factor * (1.0 / math.sqrt(b) - 1.0 / math.sqrt(a)) * b


def lvr_penalty(liquidity: float, sigma: float, price: float, in_range: bool) -> float:
    """Instantaneous loss-versus-rebalancing cost L*sigma^2*sqrt(p)/4.

    Zero while the price sits outside the active range: the position value is
    linear in price there, so there is no adverse-selection convexity cost.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if not in_range:
        return 0.0
    return liquidity * sigma * sigma * math.sqrt(price) / 4.0
