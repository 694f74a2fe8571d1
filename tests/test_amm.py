import math

import numpy as np
import pytest

from activelp import amm
import amm_oracle as oracle


def brute_force_fee(liquidity, fee_rate, p_from, p_to, p_l, p_u, n_steps):
    """Decompose the move into n_steps equal sub-moves, clamp each endpoint to
    the range, and accumulate fees the way the pool does: upward fees in Y,
    downward fees in X converted at the final clamped price."""
    grid = np.linspace(p_from, p_to, n_steps + 1)
    clamped = np.clip(grid, p_l, p_u)
    factor = fee_rate / (1.0 - fee_rate) * liquidity
    total_y = 0.0
    total_x = 0.0
    for a, b in zip(clamped[:-1], clamped[1:]):
        if p_to >= p_from:
            total_y += factor * (math.sqrt(b) - math.sqrt(a))
        else:
            total_x += factor * (1.0 / math.sqrt(b) - 1.0 / math.sqrt(a))
    return total_y + total_x * clamped[-1]


def same_bits(got, want):
    """Kernel output equal to the oracle's float64 values, bit for bit."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


MOVES = ("random", "no move", "from lower", "from upper", "to lower", "to upper",
         "both below", "both above", "across", "zero liquidity")


def moves(kind, rng, n=400):
    """(liquidity, p, q, lower price, upper price) arrays of n price moves
    p -> q of one kind against random ranges; "from lower" starts exactly on
    the lower bound, and so on."""
    lower = np.exp(rng.uniform(-3.0, 9.0, n))
    upper = lower * rng.uniform(1.0001, 3.0, n)
    liq = np.zeros(n) if kind == "zero liquidity" else rng.uniform(0.1, 50.0, n)
    inside = lower + (upper - lower) * rng.uniform(0.0, 1.0, n)
    anywhere = lower * rng.uniform(0.3, 3.0, (2, n))
    below = lower * rng.uniform(0.2, 1.0, (2, n))
    above = upper * rng.uniform(1.0, 5.0, (2, n))
    upward = rng.integers(0, 2, n).astype(bool)
    p, q = {
        "random": anywhere, "zero liquidity": anywhere, "no move": (inside, inside),
        "from lower": (lower, inside), "from upper": (upper, inside),
        "to lower": (inside, lower), "to upper": (inside, upper),
        "both below": below, "both above": above,
        "across": (np.where(upward, below[0], above[0]), np.where(upward, above[1], below[1])),
    }[kind]
    return liq, p, q, lower, upper


class TestTickMath:
    def test_tick_of_one_is_zero(self):
        assert amm.tick_index(1.0) == 0

    def test_tick_of_exact_power(self):
        assert amm.tick_index(1.0001) == 1

    def test_tick_of_3000(self):
        # floor(ln 3000 / ln 1.0001) evaluated at 60 decimal digits
        assert amm.tick_index(3000.0) == 80067

    def test_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for p in (0.0001, 0.7, 1.5, 42.0, 3000.0, 9e6, 2.5e8):
            want = int(mpmath.floor(mpmath.log(mpmath.mpf(repr(p))) / mpmath.log(mpmath.mpf("1.0001"))))
            assert amm.tick_index(p) == want, p

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            amm.tick_index(0.0)
        with pytest.raises(ValueError):
            amm.tick_index(-3.0)

    def test_price_at_tick_values(self):
        assert amm.price_at_tick(0) == 1.0
        assert amm.price_at_tick(2) == pytest.approx(1.0001 ** 2, rel=1e-14)
        assert amm.price_at_tick(-1) == pytest.approx(1.0 / 1.0001, rel=1e-14)

    def test_round_trip_sampled(self):
        for i in range(-200000, 200001, 167):
            p = amm.price_at_tick(i) * (1 + 1e-12)
            assert amm.tick_index(p) == i, i

    def test_round_trip_at_exact_grid_price(self):
        for i in (-987, -1, 0, 1, 12345, 199999):
            assert amm.tick_index(amm.price_at_tick(i)) == i


class TestTickIndices:
    """The array `tick_indices` against the scalar `tick_index`, bitwise."""

    @staticmethod
    def assert_matches_scalar(prices):
        want = np.array([amm.tick_index(p) for p in prices.tolist()], dtype=np.int64)
        got = amm.tick_indices(prices)
        assert got.dtype == np.int64 and got.shape == want.shape
        wrong = np.flatnonzero(got != want)
        assert wrong.size == 0, [(prices[k], got[k], want[k]) for k in wrong[:5]]

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 3000.0, 1e5, 1e8])
    def test_log_normal_prices(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 10)
        self.assert_matches_scalar(scale * rng.lognormal(0.0, 1.0, 20000))

    def test_every_tick_boundary_and_its_neighbours(self):
        # a floor of numpy's log ratio with no scalar fallback is one tick
        # off on thousands of these
        exact = np.array([amm.price_at_tick(i) for i in range(-300000, 300000)])
        self.assert_matches_scalar(np.concatenate([
            exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf),
            exact * (1 - 1e-12), exact * (1 + 1e-12)]))

    @pytest.mark.parametrize("bad", [0.0, -3.0, -0.0, -math.inf, math.nan, math.inf])
    def test_raises_as_the_scalar_does(self, bad):
        with pytest.raises((ValueError, OverflowError)) as scalar:
            amm.tick_index(bad)
        with pytest.raises(type(scalar.value)) as array:
            amm.tick_indices(np.array([1.0, 2.5, bad, 4.0]))
        assert str(array.value) == str(scalar.value)
        if bad <= 0:
            assert scalar.type is ValueError and "price must be positive" in str(scalar.value)


class TestAlignRange:
    def test_already_aligned(self):
        assert oracle.align_range(100, 50, 10) == (50, 150)

    def test_widens_outward(self):
        assert oracle.align_range(103, 50, 10) == (50, 160)

    def test_symmetric_at_zero(self):
        assert oracle.align_range(0, 10, 10) == (-10, 10)

    def test_rejects_half_width_below_spacing(self):
        with pytest.raises(ValueError):
            oracle.align_range(100, 5, 10)

    def test_lower_below_upper_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = int(rng.integers(-100000, 100000))
            spacing = int(rng.integers(1, 61))
            half = spacing * int(rng.integers(1, 20))
            lower, upper = oracle.align_range(center, half, spacing)
            assert lower < upper
            assert lower % spacing == 0 and upper % spacing == 0
            assert lower <= center - half and center + half <= upper

    @pytest.mark.parametrize("spacing", [1, 10, 60, 200])
    def test_kernel_matches_oracle(self, spacing):
        rng = np.random.default_rng(spacing)
        centers = np.concatenate([rng.integers(-887272, 887273, 500),
                                  np.arange(-3 * spacing - 2, 3 * spacing + 3)])
        for half in (spacing, 2 * spacing, 7 * spacing, 2 * spacing + 1):
            lower, upper = amm.align_range(centers, half, spacing)
            want = np.array([oracle.align_range(c, half, spacing) for c in centers.tolist()])
            assert lower.dtype == upper.dtype == want.dtype == np.int64
            assert np.stack([lower, upper], axis=1).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="below tick spacing"):
            amm.align_range(centers, spacing - 1, spacing)


class TestLiquidityAndReserves:
    def test_liquidity_simple(self):
        assert oracle.liquidity_from_x(2.0, 1.0, 4.0) == pytest.approx(4.0)

    def test_y_side_of_simple_deposit(self):
        liq = oracle.liquidity_from_x(2.0, 1.0, 4.0)
        y0 = liq * (math.sqrt(1.0) - math.sqrt(0.25))
        assert y0 == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.1, 10.0, 500)
        price = np.exp(rng.uniform(-9.0, 16.0, 500))
        upper = price * rng.uniform(1.00001, 3.0, 500)
        want = [oracle.liquidity_from_x(*args) for args in zip(x0.tolist(), price.tolist(),
                                                                 upper.tolist())]
        assert same_bits(amm.liquidity_from_x(x0, price, upper), want)
        # one x0 for every price, as the range tables size positions
        want = [oracle.liquidity_from_x(2.0, *args) for args in zip(price.tolist(), upper.tolist())]
        assert same_bits(amm.liquidity_from_x(2.0, price, upper), want)

    def test_rejects_price_at_or_above_upper(self):
        with pytest.raises(ValueError):
            oracle.liquidity_from_x(2.0, 4.0, 4.0)
        with pytest.raises(ValueError):
            oracle.liquidity_from_x(2.0, 5.0, 4.0)

    def test_round_trip_at_high_price(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        price = 9e6
        lower, upper = oracle.align_range(amm.tick_index(price), 50, 10)
        pos = oracle.Position.open(lower, upper, price, 2.0)
        pu = mpmath.mpf("1.0001") ** upper
        want = mpmath.mpf(2) / (1 / mpmath.sqrt(mpmath.mpf(price)) - 1 / mpmath.sqrt(pu))
        assert pos.liquidity == pytest.approx(float(want), rel=1e-12)
        got = oracle.reserves(pos, price)
        assert got.x == pytest.approx(2.0, rel=1e-12)
        assert got.y == pytest.approx(pos.entry_y, rel=1e-12)

    def test_hand_example_in_range(self):
        got = oracle.range_reserves(4.0, 1.0, 0.25, 4.0)
        assert got.x == pytest.approx(2.0)
        assert got.y == pytest.approx(2.0)

    def test_reserves_at_bounds(self):
        at_upper = oracle.range_reserves(4.0, 4.0, 0.25, 4.0)
        assert at_upper.x == pytest.approx(0.0, abs=1e-15)
        assert at_upper.y == pytest.approx(4.0 * (math.sqrt(4.0) - math.sqrt(0.25)))
        at_lower = oracle.range_reserves(4.0, 0.25, 0.25, 4.0)
        assert at_lower.y == pytest.approx(0.0, abs=1e-15)
        assert at_lower.x == pytest.approx(4.0 * (1 / math.sqrt(0.25) - 1 / math.sqrt(4.0)))

    def test_reserves_clamp_outside(self):
        pos = oracle.Position.open(-13864, 13863, 1.0, 2.0)
        far_up = oracle.reserves(pos, pos.upper_price * 10)
        at_up = oracle.reserves(pos, pos.upper_price)
        assert far_up == at_up
        far_down = oracle.reserves(pos, pos.lower_price / 10)
        at_down = oracle.reserves(pos, pos.lower_price)
        assert far_down == at_down

    def test_reserve_continuity_at_bounds(self):
        pos = oracle.Position.open(-200, 300, 1.01, 5.0)
        for bound in (pos.lower_price, pos.upper_price):
            scale = 1.0 + oracle.position_value(pos, bound)
            lo = oracle.reserves(pos, bound * (1 - 1e-12))
            hi = oracle.reserves(pos, bound * (1 + 1e-12))
            assert lo.x == pytest.approx(hi.x, rel=1e-9, abs=1e-9 * scale)
            assert lo.y == pytest.approx(hi.y, rel=1e-9, abs=1e-9 * scale)

    def test_entry_consistency_enforced(self):
        with pytest.raises(ValueError):
            oracle.Position(lower_tick=-100, upper_tick=100, liquidity=4.0,
                            entry_price=1.0, entry_x=99.0, entry_y=2.0)

    def test_order_of_ticks_enforced(self):
        with pytest.raises(ValueError):
            oracle.Position(lower_tick=10, upper_tick=10, liquidity=0.0,
                            entry_price=1.0, entry_x=0.0, entry_y=0.0)

    def test_open_rejects_price_below_range(self):
        with pytest.raises(ValueError):
            oracle.Position.open(100, 200, amm.price_at_tick(50), 2.0)


class TestPositionValue:
    def test_hand_example(self):
        r = oracle.range_reserves(4.0, 1.0, 0.25, 4.0)
        assert r.x * 1.0 + r.y == pytest.approx(4.0)

    def test_value_uses_entry_reserves_at_entry(self):
        pos = oracle.Position.open(-13864, 13863, 1.0, 2.0)
        assert oracle.position_value(pos, 1.0) == pytest.approx(
            pos.entry_x * 1.0 + pos.entry_y)

    def test_value_above_range_is_y_only(self):
        pos = oracle.Position.open(-100, 100, 1.0, 2.0)
        v = oracle.position_value(pos, pos.upper_price * 3)
        r = oracle.reserves(pos, pos.upper_price)
        assert v == pytest.approx(r.y)

    def test_matches_closed_form_in_range(self):
        # V(p) = L*(2*sqrt(p) - p/sqrt(p_u) - sqrt(p_l)) inside the range
        pos = oracle.Position.open(-500, 700, 1.02, 3.0)
        p_l, p_u = pos.lower_price, pos.upper_price
        liq = pos.liquidity
        for p in np.linspace(p_l, p_u, 100):
            closed = liq * (2 * math.sqrt(p) - p / math.sqrt(p_u) - math.sqrt(p_l))
            assert oracle.position_value(pos, p) == pytest.approx(closed, rel=1e-12)


class TestImpermanentLoss:
    def test_zero_at_entry(self):
        pos = oracle.Position.open(-300, 300, 1.0, 2.0)
        assert abs(oracle.impermanent_loss(pos, 1.0)) < 1e-9

    def test_non_positive_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            entry = float(rng.uniform(0.5, 5000.0))
            center = amm.tick_index(entry)
            spacing = int(rng.choice([1, 5, 10, 60]))
            half = spacing * int(rng.integers(1, 40))
            lower, upper = oracle.align_range(center, half, spacing)
            pos = oracle.Position.open(lower, upper, entry, float(rng.uniform(0.1, 10.0)))
            grid = np.linspace(pos.lower_price / 2, 2 * pos.upper_price, 1000)
            ils = np.array([oracle.impermanent_loss(pos, p) for p in grid])
            assert np.all(ils <= 1e-12)

    def test_far_above_range_limit(self):
        pos = oracle.Position.open(-300, 300, 1.0, 2.0)
        y_final = oracle.reserves(pos, pos.upper_price).y
        for p in (pos.upper_price * 10, pos.upper_price * 1000):
            want = y_final / (pos.entry_x * p + pos.entry_y) - 1.0
            assert oracle.impermanent_loss(pos, p) == pytest.approx(want, rel=1e-12)
            assert oracle.impermanent_loss(pos, p) < 0


class TestFees:
    def test_upward_simple(self):
        assert oracle.fee_for_move(1.0, 0.5, 1.0, 4.0, 0.25, 4.0) == pytest.approx(1.0)

    def test_downward_simple(self):
        assert oracle.fee_for_move(1.0, 0.5, 4.0, 1.0, 0.25, 4.0) == pytest.approx(0.5)

    def test_no_move_no_fee(self):
        assert oracle.fee_for_move(1.0, 0.3, 2.0, 2.0, 1.0, 4.0) == 0.0

    def test_no_overlap_no_fee(self):
        assert oracle.fee_for_move(1.0, 0.3, 5.0, 9.0, 1.0, 4.0) == 0.0
        assert oracle.fee_for_move(1.0, 0.3, 0.2, 0.5, 1.0, 4.0) == 0.0

    def test_linear_in_liquidity(self):
        f1 = oracle.fee_for_move(3.0, 0.003, 1.0, 1.7, 0.9, 2.0)
        f2 = oracle.fee_for_move(6.0, 0.003, 1.0, 1.7, 0.9, 2.0)
        assert f2 == 2.0 * f1

    def test_upward_additive(self):
        f_ac = oracle.fee_for_move(2.0, 0.01, 1.0, 3.0, 0.5, 5.0)
        f_ab = oracle.fee_for_move(2.0, 0.01, 1.0, 2.2, 0.5, 5.0)
        f_bc = oracle.fee_for_move(2.0, 0.01, 2.2, 3.0, 0.5, 5.0)
        assert f_ac == pytest.approx(f_ab + f_bc, rel=1e-12)

    def test_downward_additive_in_token_terms(self):
        # downward fees accrue in X; converting the first leg to the final
        # price makes the decomposition exact
        f_ac = oracle.fee_for_move(2.0, 0.01, 3.0, 1.0, 0.5, 5.0)
        f_ab = oracle.fee_for_move(2.0, 0.01, 3.0, 1.8, 0.5, 5.0)
        f_bc = oracle.fee_for_move(2.0, 0.01, 1.8, 1.0, 0.5, 5.0)
        assert f_ac == pytest.approx(f_ab * (1.0 / 1.8) + f_bc, rel=1e-12)

    def test_boundary_crossing_against_decomposition(self):
        cases = [
            (1.0, 0.0005, 2900.0, 3100.0, 2950.0, 3050.0),
            (5.0, 0.003, 3100.0, 2900.0, 2950.0, 3050.0),
            (2.0, 0.05, 0.5, 9.0, 1.0, 4.0),
            (2.0, 0.05, 9.0, 0.5, 1.0, 4.0),
        ]
        for liq, rate, p_from, p_to, p_l, p_u in cases:
            want = brute_force_fee(liq, rate, p_from, p_to, p_l, p_u, 1000)
            got = oracle.fee_for_move(liq, rate, p_from, p_to, p_l, p_u)
            assert got == pytest.approx(want, rel=1e-9)

    def test_random_paths_against_decomposition(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            liq = float(rng.uniform(0.1, 50.0))
            rate = float(rng.uniform(0.0001, 0.3))
            anchor = float(np.exp(rng.uniform(-2, 9)))
            p_from = anchor * float(rng.uniform(0.5, 2.0))
            p_to = anchor * float(rng.uniform(0.5, 2.0))
            p_l = anchor * float(rng.uniform(0.4, 1.2))
            p_u = p_l * float(rng.uniform(1.05, 3.0))
            want = brute_force_fee(liq, rate, p_from, p_to, p_l, p_u, 10_000)
            got = oracle.fee_for_move(liq, rate, p_from, p_to, p_l, p_u)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-15)

    @pytest.mark.parametrize("kind", MOVES)
    def test_kernel_matches_oracle(self, kind):
        rng = np.random.default_rng(MOVES.index(kind))
        liq, p, q, lower, upper = moves(kind, rng)
        for rate in (0.0001, 0.0005, 0.003, 0.01, 0.3):
            want = [oracle.fee_for_move(*args) for args in zip(
                liq.tolist(), [rate] * liq.size, p.tolist(), q.tolist(), lower.tolist(),
                upper.tolist())]
            assert same_bits(amm.fee_for_move(liq, rate, p, q, lower, upper), want)


class TestLvr:
    def test_simple_value(self):
        assert oracle.lvr_penalty(4.0, 1.0, 1.0, True) == 1.0

    def test_zero_sigma(self):
        assert oracle.lvr_penalty(4.0, 0.0, 123.0, True) == 0.0

    def test_zero_out_of_range(self):
        assert oracle.lvr_penalty(1e9, 5.0, 3000.0, False) == 0.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            oracle.lvr_penalty(1.0, -0.1, 1.0, True)


    @pytest.mark.parametrize("zero_sigma", [False, True])
    @pytest.mark.parametrize("kind", MOVES)
    def test_kernel_matches_oracle(self, kind, zero_sigma):
        rng = np.random.default_rng(100 + MOVES.index(kind))
        liq, p, _, lower, upper = moves(kind, rng)
        sigma = np.zeros(p.size) if zero_sigma else rng.uniform(0.0, 0.1, p.size)
        want = [oracle.lvr_penalty(l_, s_, p_, lo <= p_ <= up)
                for l_, s_, p_, lo, up in zip(liq.tolist(), sigma.tolist(), p.tolist(),
                                              lower.tolist(), upper.tolist())]
        assert same_bits(amm.lvr_penalty(liq, sigma, p, lower, upper), want)


class TestPoolSpec:
    def test_valid(self):
        spec = amm.PoolSpec(fee_rate=0.0005, tick_spacing=10, gas_cost=5.0)
        assert spec.fee_rate == 0.0005

    @pytest.mark.parametrize("kwargs", [
        dict(fee_rate=0.0, tick_spacing=10, gas_cost=5.0),
        dict(fee_rate=1.0, tick_spacing=10, gas_cost=5.0),
        dict(fee_rate=0.003, tick_spacing=0, gas_cost=5.0),
        dict(fee_rate=0.003, tick_spacing=10, gas_cost=-1.0),
        dict(fee_rate=0.003, tick_spacing=2.5, gas_cost=5.0),
        dict(fee_rate=0.003, tick_spacing=10.0, gas_cost=5.0),
        dict(fee_rate=0.003, tick_spacing=True, gas_cost=5.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            amm.PoolSpec(**kwargs)

    def test_accepts_numpy_integer_spacing(self):
        assert amm.PoolSpec(fee_rate=0.003, tick_spacing=np.int64(60), gas_cost=5.0).tick_spacing == 60
