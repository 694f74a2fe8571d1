import csv
from dataclasses import replace

import numpy as np
import pytest

from activelp import data, harness
from activelp.amm import PoolSpec
from activelp.data import PriceSeries
from activelp.env import MIN_HISTORY, EpisodeTrace, MarketTape
from activelp.harness import (AgentOutcome, ConfigError, ExperimentConfig, SearchGrid,
                              Window, WindowResult, emit_report, make_windows, run_window,
                              sample_spec, train_and_select)
from activelp.ppo import AgentSpec, Mlp, TrainResult
from test_ppo import flat

POOL = PoolSpec(fee_rate=0.0005, tick_spacing=10, gas_cost=5.0)

TINY_GRID = SearchGrid(
    action_sets=((0, 20, 50),),
    activations=("tanh",),
    hidden_layers=((4,),),
    learning_rates=(1e-3,),
    clip_ranges=(0.2,),
    entropy_coefs=(1e-3,),
    gammas=(0.99,),
)

TINY_TRAINING = {"rollout_length": 300, "total_timesteps": 900, "patience": 50}


def tiny_config(**overrides):
    # run_window reads neither data nor output_dir
    settings = dict(data="", output_dir="", grid=TINY_GRID, pool=POOL, x0=2.0,
                    training=TINY_TRAINING)
    return ExperimentConfig(**{**settings, **overrides})


def tiny_series(n_hours=800, seed=2):
    return data.gbm_generate(seed=seed, n_hours=n_hours, p_start=3000.0,
                             drift=0.0, vol=0.004)


class TestMakeWindows:
    def test_two_windows(self):
        assert len(make_windows(10_500, 7500, 1500, 1500)) == 2

    def test_single_window(self):
        assert len(make_windows(9000, 7500, 1500, 1500)) == 1

    def test_eleven_windows_over_long_series(self):
        assert len(make_windows(24_090, 7500, 1500, 1500)) == 11

    def test_too_short_raises(self):
        with pytest.raises(ConfigError):
            make_windows(8999, 7500, 1500, 1500)

    def test_layout(self):
        windows = make_windows(10_500, 7500, 1500, 1500)
        first = windows[0]
        assert (first.train_start, first.train_end) == (0, 7500)
        assert (first.test_start, first.test_end) == (7500, 9000)
        second = windows[1]
        assert second.train_start == 1500
        assert second.test_end == 10_500

    def test_test_slices_tile_without_overlap(self):
        windows = make_windows(24_090, 7500, 1500, 1500)
        for prev, cur in zip(windows, windows[1:]):
            assert cur.test_start == prev.test_end

    def test_train_len_must_exceed_warmup(self):
        with pytest.raises(ConfigError):
            make_windows(10_000, MIN_HISTORY, 100, 100)


class TestSampleSpec:
    def test_singleton_grid_gives_unique_spec(self):
        rng = np.random.default_rng(0)
        spec = sample_spec(TINY_GRID, rng)
        assert spec.action_set == (0, 20, 50)
        assert spec.activation == "tanh"
        assert spec.learning_rate == 1e-3

    def test_seeded_reproducibility(self):
        grid = SearchGrid.default()
        a = [sample_spec(grid, np.random.default_rng(3)) for _ in range(5)]
        b = [sample_spec(grid, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_learning_rate_draws_are_uniform(self):
        grid = SearchGrid.default()
        rng = np.random.default_rng(5)
        n = 1000
        draws = [sample_spec(grid, rng).learning_rate for _ in range(n)]
        k = len(grid.learning_rates)
        p = 1.0 / k
        sigma = np.sqrt(n * p * (1 - p))
        for value in grid.learning_rates:
            count = sum(1 for d in draws if d == value)
            assert abs(count - n * p) <= 3 * sigma, value

    def test_overrides_applied(self):
        rng = np.random.default_rng(7)
        spec = sample_spec(TINY_GRID, rng, total_timesteps=123, rollout_length=50)
        assert spec.total_timesteps == 123
        assert spec.rollout_length == 50


class TrackingSeries(PriceSeries):
    def __init__(self, base: PriceSeries):
        super().__init__(base.timestamps, base.opens, base.highs, base.lows,
                         base.closes, base.volumes)
        self.requests = []

    def slice(self, start, stop):
        self.requests.append((start, stop))
        return super().slice(start, stop)


class TestRunWindow:
    def setup_method(self):
        self.series = tiny_series()
        self.windows = make_windows(len(self.series), 400, 200, 200)

    def test_single_agent_is_selected(self):
        result = run_window(self.series, self.windows[0], tiny_config(n_agents=1, seed=0))
        assert not result.failed
        assert result.selected.index == 0
        assert len(result.agents) == 1

    def test_trace_lengths_match_test_len(self):
        result = run_window(self.series, self.windows[0], tiny_config(n_agents=1, seed=0))
        assert result.active_trace.t.size == 200
        assert result.passive_trace.t.size == 200

    def test_passive_deployment_structure(self):
        result = run_window(self.series, self.windows[0],
                            tiny_config(n_agents=1, seed=0, passive_period=80))
        deploys = result.passive_trace.t[result.passive_trace.action > 0]
        assert list(deploys) == [0, 80, 160]
        assert float(result.passive_trace.gas.sum()) == POOL.gas_cost * (1 + 2 + 2)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            result = run_window(self.series, self.windows[0], tiny_config(n_agents=2, seed=7))
            runs.append(result)
        a, b = runs
        assert a.selected.index == b.selected.index
        np.testing.assert_array_equal(a.active_trace.reward, b.active_trace.reward)
        np.testing.assert_array_equal(a.passive_trace.reward, b.passive_trace.reward)

    def test_selection_never_touches_test_data(self, monkeypatch):
        # every slice of the series taken by the time selection returns ends
        # before the test period
        tracked = TrackingSeries(self.series)
        window = self.windows[0]
        seen = []

        def tracking_select(*args, **kwargs):
            out = train_and_select(*args, **kwargs)
            seen.extend(tracked.requests)
            return out

        monkeypatch.setattr(harness, "train_and_select", tracking_select)
        result = run_window(tracked, window, tiny_config(n_agents=2, seed=1))
        assert not result.failed
        assert seen, "expected data access through slice()"
        for start, stop in seen:
            assert stop <= window.test_start

    def test_parallel_training_matches_sequential(self):
        # one lockstep group, then several: workers train whole groups
        mixed = replace(TINY_GRID, activations=("tanh", "relu"), hidden_layers=((4,), (6, 2)))
        for grid, n_agents in ((TINY_GRID, 2), (mixed, 5)):
            kwargs = dict(grid=grid, n_agents=n_agents, seed=7)
            seq = run_window(self.series, self.windows[0], tiny_config(n_jobs=1, **kwargs))
            par = run_window(self.series, self.windows[0], tiny_config(n_jobs=2, **kwargs))
            assert seq.selected.index == par.selected.index
            np.testing.assert_array_equal(seq.active_trace.reward,
                                          par.active_trace.reward)
            for a, b in zip(seq.agents, par.agents):
                assert (a.index, a.train_reward, a.error) == (b.index, b.train_reward, b.error)
                assert flat(a.result.actor).tobytes() == flat(b.result.actor).tobytes()
        assert len({(o.spec.activation, o.spec.hidden_layers) for o in seq.agents}) > 1

    def test_agent_seeds_differ(self):
        result = run_window(self.series, self.windows[0], tiny_config(n_agents=2, seed=3))
        a, b = result.agents
        fa = flat(a.result.actor)
        fb = flat(b.result.actor)
        assert fa.shape == fb.shape
        assert not np.array_equal(fa, fb)

    def test_leaky_selection_mode_runs(self):
        result = run_window(self.series, self.windows[0],
                            tiny_config(n_agents=2, seed=3, selection="test_leaky"))
        assert not result.failed
        best_on_test = max(
            (o for o in result.agents if o.result is not None),
            key=lambda o: _test_reward(self.series, self.windows[0], o))
        assert result.selected.index == best_on_test.index

    @pytest.mark.parametrize("selection", ["train", "test_leaky"])
    def test_stats_once_per_action_set(self, monkeypatch, selection):
        from activelp import env

        calls = []
        original = env.compute_stats

        def counting(series, action_set, pool, x0):
            calls.append(tuple(action_set))
            return original(series, action_set, pool, x0)

        monkeypatch.setattr(harness, "compute_stats", counting)
        monkeypatch.setattr(env, "compute_stats", counting)
        grid = SearchGrid(action_sets=((0, 20, 50), (0, 50, 100)),
                          activations=("tanh",), hidden_layers=((4,),),
                          learning_rates=(1e-3,), clip_ranges=(0.2,),
                          entropy_coefs=(1e-3,), gammas=(0.99,))
        config = tiny_config(grid=grid, n_agents=4, seed=5, selection=selection,
                             training={**TINY_TRAINING, "total_timesteps": 300})
        result = run_window(self.series, self.windows[0], config)
        assert not result.failed
        distinct = {o.spec.action_set for o in result.agents}
        assert len(distinct) == 2
        # the passive baseline is scored by replay, which needs no stats
        assert sorted(calls) == sorted(distinct)


    @pytest.mark.parametrize("selection", ["train", "test_leaky"])
    def test_one_tape_per_slice_and_one_env_per_agent(self, monkeypatch, selection):
        from activelp import env

        features, envs = [], []
        compute_features, init = env.compute_features, env.LPEnv.__init__

        def counting_features(series, *args, **kwargs):
            features.append(len(series))
            return compute_features(series, *args, **kwargs)

        def counting_init(self, config):
            envs.append(config.action_set)
            init(self, config)

        monkeypatch.setattr(env, "compute_features", counting_features)
        monkeypatch.setattr(env.LPEnv, "__init__", counting_init)
        window = self.windows[0]
        config = tiny_config(n_agents=3, seed=5, selection=selection,
                             training={**TINY_TRAINING, "total_timesteps": 300})
        result = run_window(self.series, window, config)
        assert not result.failed
        train_len = window.train_end - window.train_start
        test_len = window.test_end - window.test_start + MIN_HISTORY
        assert sorted(features) == sorted([train_len, test_len])
        # one env per agent (training and greedy pass) and the active test
        # env, plus one test env per agent when rescoring on test; the
        # passive baseline is replayed without an env
        assert len(envs) == 3 + 1 + (3 if selection == "test_leaky" else 0)


def _test_reward(series, window, outcome):
    from activelp.env import compute_stats
    train_tape = MarketTape(series.slice(window.train_start, window.train_end))
    stats = compute_stats(train_tape, outcome.spec.action_set, POOL, 2.0)
    # the test pass reads the agent's own frozen stats: they must be the train slice's
    assert outcome.stats.mean.tobytes() == stats.mean.tobytes()
    assert outcome.stats.std.tobytes() == stats.std.tobytes()
    test_tape = MarketTape(harness._test_slice(series, window))
    active, _ = harness.evaluate_on_test(test_tape, outcome, tiny_config())
    return active.total_reward


class TestReport:
    def _results(self, tmp_path, n_agents=1):
        series = tiny_series()
        windows = make_windows(len(series), 400, 200, 200)
        return [run_window(series, w, tiny_config(n_agents=n_agents, seed=0))
                for w in windows[:2]]

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], tmp_path)

    def test_summary_matches_cumulative_tails(self, tmp_path):
        import csv

        results = self._results(tmp_path)
        emit_report(results, tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row, result in zip(rows, results):
            assert float(row["active_reward"]) == result.active_trace.cumulative_reward[-1]
            assert float(row["passive_reward"]) == result.passive_trace.cumulative_reward[-1]
            with open(tmp_path / "windows" / f"window_{int(row['window']):02d}" /
                      "cumulative.csv") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(last["active_cum"]) == float(row["active_reward"])
            assert float(last["passive_cum"]) == float(row["passive_reward"])

    def test_win_count_line(self, tmp_path, capsys):
        results = self._results(tmp_path)
        capsys.readouterr()
        emit_report(results, tmp_path)
        assert capsys.readouterr().out == ""  # only the CLI prints
        text = (tmp_path / "wins.txt").read_text().strip()
        wins = sum(1 for r in results if r.active_reward > r.passive_reward)
        assert text == f"active wins {wins} of {len(results)}"

    def test_checkpoint_written(self, tmp_path):
        results = self._results(tmp_path)
        emit_report(results, tmp_path)
        assert (tmp_path / "windows" / "window_00" / "agent.npz").exists()
        assert (tmp_path / "windows" / "window_00" / "training_curve.csv").exists()

    def test_failed_window_recorded_and_skipped_in_summary(self, tmp_path):
        import csv

        from activelp.harness import AgentOutcome, Window, WindowResult

        results = self._results(tmp_path)
        failed = WindowResult(
            window=Window(index=9, train_start=0, train_end=400,
                          test_start=400, test_end=600),
            test_end_ts=0,
            agents=[AgentOutcome(index=0, spec=None, train_reward=-np.inf,
                                 result=None, error="boom")],
            selected=None, active_trace=None, passive_trace=None, failed=True)
        emit_report(results + [failed], tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(results)
        note = (tmp_path / "windows" / "window_09" / "failed.txt").read_text()
        assert "boom" in note


VALUES = [-0.0, 0.0, 5e-324, 1e16, 1e-300, 0.1, 2.5e15, -7.25, 3000.123456789,
          1.7976931348623157e308, np.nan, np.inf, -np.inf]


def reward_trace(rewards):
    """A trace of the given rewards; every other column is constant."""
    n = len(rewards)
    zeros = np.zeros(n)
    return EpisodeTrace(np.arange(n), zeros + 3000.0, zeros.astype(np.int64),
                        zeros.astype(np.int64), zeros, zeros, zeros, zeros,
                        np.array(rewards, dtype=float))


def report_window(index, active, passive, failed=False):
    """A window result over hand-made traces, with an untrained agent."""
    spec = AgentSpec(action_set=(0, 20, 50), hidden_layers=(4,))
    rng = np.random.default_rng(index)
    result = TrainResult(spec, Mlp.build([13, 4, 3], "tanh", rng),
                         Mlp.build([13, 4, 1], "tanh", rng), [], 0, False)
    agent = AgentOutcome(index=0, spec=spec, train_reward=0.5,
                         result=None if failed else result, error="boom" if failed else None)
    return WindowResult(window=Window(index, 0, 400, 400, 400 + len(active)),
                        test_end_ts=1609459200 + 3600 * index, agents=[agent],
                        selected=None if failed else agent,
                        active_trace=None if failed else reward_trace(active),
                        passive_trace=None if failed else reward_trace(passive),
                        failed=failed)


def reference_summary(results, path):
    """summary.csv as one csv.writer row per window that did not fail."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "end_of_test", "active_reward", "passive_reward"])
        for r in results:
            if not r.failed:
                writer.writerow([r.window.index, data._iso(r.test_end_ts),
                                 repr(r.active_reward), repr(r.passive_reward)])


def reference_cumulative(result, path):
    """cumulative.csv as one csv.writer row per step."""
    a_cum = result.active_trace.cumulative_reward
    p_cum = result.passive_trace.cumulative_reward
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "active_cum", "passive_cum"])
        for t in range(a_cum.size):
            writer.writerow([t, repr(float(a_cum[t])), repr(float(p_cum[t]))])


class TestReportBytes:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_tables_match_row_writer(self, tmp_path):
        # one 1-step window per value, so every value is a total and a
        # cumulative entry, and one long window over all of them
        results = [report_window(i, [v], [VALUES[-1 - i]]) for i, v in enumerate(VALUES)]
        results.append(report_window(len(VALUES), VALUES, VALUES[::-1]))
        results.insert(3, report_window(99, [], [], failed=True))
        emit_report(results, tmp_path)
        reference_summary(results, tmp_path / "want.csv")
        assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        for r in results:
            if r.failed:
                continue
            got = tmp_path / "windows" / f"window_{r.window.index:02d}" / "cumulative.csv"
            reference_cumulative(r, tmp_path / "want.csv")
            assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_every_window_failed_writes_the_header_only(self, tmp_path):
        emit_report([report_window(0, [], [], failed=True),
                     report_window(1, [], [], failed=True)], tmp_path)
        assert ((tmp_path / "summary.csv").read_bytes()
                == b"window,end_of_test,active_reward,passive_reward\r\n")
        assert (tmp_path / "wins.txt").read_text() == "active wins 0 of 0\n"


class TestExperimentConfig:
    def test_missing_keys(self):
        with pytest.raises(ConfigError, match="output_dir"):
            ExperimentConfig.from_dict({"data": "x.csv"})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y", "bogus": 1})

    def test_bad_pool(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y",
                                        "pool": {"fee_rate": 2.0, "tick_spacing": 10,
                                                 "gas_cost": 5.0}})

    @pytest.mark.parametrize("spacing", [2.5, 10.0, True])
    def test_tick_spacing_must_be_an_integer(self, spacing):
        with pytest.raises(ConfigError, match="invalid pool spec.*tick_spacing"):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y",
                                        "pool": {"fee_rate": 0.0005, "tick_spacing": spacing,
                                                 "gas_cost": 5.0}})

    @pytest.mark.parametrize("key", ["value_coef", "improvement_threshold"])
    def test_non_finite_training_override(self, key):
        with pytest.raises(ConfigError, match=f"invalid training override: {key} must be finite"):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y",
                                        "training": {key: float("nan")}})

    def test_bad_selection(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y",
                                        "selection": "test"})

    def test_training_override_whitelist(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y",
                                        "training": {"learning_rate": 1.0}})

    def test_grid_override(self):
        config = ExperimentConfig.from_dict({
            "data": "x", "output_dir": "y",
            "grid": {"action_sets": [[0, 20]], "activations": ["tanh"],
                     "hidden_layers": [[4]], "learning_rates": [1e-3],
                     "clip_ranges": [0.2], "entropy_coefs": [1e-3],
                     "gammas": [0.99]},
        })
        assert config.grid.action_sets == ((0, 20),)

    @pytest.mark.parametrize("dim,values", [("hidden_layers", [[4], [8.5]]),
                                            ("action_sets", [[0, 20], [0, 15]])])
    def test_every_grid_value_is_checked(self, dim, values):
        # the default pool's tick spacing is 10, so no window could use (0, 15)
        grid = {"action_sets": [[0, 20]], "activations": ["tanh"], "hidden_layers": [[4]],
                "learning_rates": [1e-3], "clip_ranges": [0.2], "entropy_coefs": [1e-3],
                "gammas": [0.99], dim: values}
        with pytest.raises(ConfigError, match=f"grid {dim} value"):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y", "grid": grid})

    @pytest.mark.parametrize("key,bad", [
        ("passive_width", {"passive_width": 55}), ("passive_width", {"passive_width": 0}),
        ("passive_width", {"passive_width": -50}),
        ("passive_width", {"passive_width": 20,
                           "pool": {"fee_rate": 0.003, "tick_spacing": 60, "gas_cost": 5.0}}),
        ("passive_period", {"passive_period": 0}), ("passive_period", {"passive_period": -3}),
        ("gas_mode", {"gas_mode": "per_tx"}), ("n_agents", {"n_agents": 0}),
        ("selection", {"selection": "test"}),
    ])
    def test_bad_passive_baseline_or_gas_mode(self, key, bad):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"data": "x", "output_dir": "y", **bad})
        # a config built in code is checked too
        if "pool" in bad:
            bad = {**bad, "pool": PoolSpec(**bad["pool"])}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(data="x", output_dir="y", **bad)

    def test_x0_key_switches_sizing(self):
        config = ExperimentConfig.from_dict({"data": "x", "output_dir": "y", "x0": 10.0})
        assert config.x0 == 10.0
