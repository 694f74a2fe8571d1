import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from activelp import cli, data, ppo
from activelp.data import HOUR


def run(argv):
    return cli.main(argv)


@pytest.fixture
def candle_file(tmp_path):
    path = tmp_path / "candles.csv"
    series = data.gbm_generate(seed=1, n_hours=700, p_start=3000.0, drift=0.0,
                               vol=0.004)
    series.to_csv(path)
    return path


@pytest.fixture
def feature_calls(monkeypatch):
    """Lengths of the series each env.compute_features call gets, in order."""
    from activelp import env

    calls = []
    compute_features = env.compute_features

    def counting(series):
        calls.append(len(series))
        return compute_features(series)

    monkeypatch.setattr(env, "compute_features", counting)
    return calls


def write_checkpoint(path):
    """An untrained checkpoint over the actions (0, 20, 50)."""
    spec = ppo.AgentSpec(action_set=(0, 20, 50), hidden_layers=(4,))
    rng = np.random.default_rng(0)
    ppo.save_checkpoint(path, ppo.TrainResult(spec, ppo.Mlp.build([13, 4, 3], "tanh", rng),
                                              ppo.Mlp.build([13, 4, 1], "tanh", rng), [], 0,
                                              False))


class TestGenerate:
    def test_writes_candles(self, tmp_path):
        out = tmp_path / "gbm.csv"
        assert run(["generate", "--out", str(out), "--hours", "300",
                    "--seed", "4"]) == 0
        assert len(data.load_candles(out)) == 300

    def test_non_finite_drift_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "gbm.csv"
        assert run(["generate", "--out", str(out), "--hours", "50", "--drift", "nan"]) == 2
        assert not out.exists()
        assert "non-finite price at row 1" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["generate", "--out", str(a), "--hours", "100", "--seed", "9"])
        run(["generate", "--out", str(b), "--hours", "100", "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()


class TestIngest:
    def test_trades_to_candles(self, tmp_path):
        trades = tmp_path / "trades.csv"
        rows = ["timestamp,price"]
        rows += [f"{i * 600},{100 + (i % 7)}" for i in range(30)]
        trades.write_text("\n".join(rows) + "\n")
        out = tmp_path / "candles.csv"
        assert run(["ingest", "--trades", str(trades), "--out", str(out)]) == 0
        series = data.load_candles(out)
        assert len(series) == 5

    def test_gapped_candles_fail_without_fill(self, tmp_path, candle_file):
        gapped = tmp_path / "gapped.csv"
        lines = candle_file.read_text().splitlines()
        del lines[5]
        gapped.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        assert run(["ingest", "--candles", str(gapped), "--out", str(out)]) == 2

    def test_gap_fill_succeeds(self, tmp_path, candle_file):
        gapped = tmp_path / "gapped.csv"
        lines = candle_file.read_text().splitlines()
        del lines[5]
        gapped.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        assert run(["ingest", "--candles", str(gapped), "--out", str(out),
                    "--fill-gaps"]) == 0
        assert len(data.load_candles(out)) == 700

    def test_missing_file_exits_2(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run(["ingest", "--candles", str(tmp_path / "nope.csv"),
                    "--out", str(out)]) == 2


class TestBaseline:
    def test_constant_price_single_deployment_costs_one_gas(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        n = 300
        ts = 1609459200 + HOUR * np.arange(n)
        closes = np.full(n, 3000.0)
        data.PriceSeries(ts, closes, closes, closes, closes).to_csv(path)
        trace_path = tmp_path / "trace.csv"
        assert run(["baseline", "--candles", str(path), "--width", "50",
                    "--period", "100000", "--out-trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "cumulative reward -5.0000" in out
        assert "(1 deployments)" in out

    def test_period_larger_than_series_single_deployment(self, tmp_path, capsys, candle_file):
        assert run(["baseline", "--candles", str(candle_file), "--width", "50",
                    "--period", "100000"]) == 0
        assert "(1 deployments)" in capsys.readouterr().out

    def test_unaligned_width_rejected(self, candle_file):
        assert run(["baseline", "--candles", str(candle_file), "--width", "55"]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,value", [("--x0", "nan"), ("--x0", "inf"),
                                            ("--gas-cost", "nan"), ("--gas-cost", "inf")])
    def test_non_finite_x0_or_gas_exits_1(self, candle_file, capsys, flag, value):
        assert run(["baseline", "--candles", str(candle_file), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag.lstrip("-").replace("-", "_") in captured.err


class TestTrainEvaluate:
    def test_round_trip(self, tmp_path, candle_file):
        ckpt = tmp_path / "agent.npz"
        curve = tmp_path / "curve.csv"
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "action_set": [0, 20, 50], "hidden_layers": [4], "activation": "tanh",
            "learning_rate": 1e-3, "rollout_length": 200, "total_timesteps": 600,
            "patience": 50,
        }))
        assert run(["train", "--candles", str(candle_file), "--out", str(ckpt),
                    "--curve", str(curve), "--spec", str(spec_file),
                    "--seed", "3"]) == 0
        assert ckpt.exists() and curve.exists()
        trace_path = tmp_path / "eval.csv"
        assert run(["evaluate", "--candles", str(candle_file),
                    "--checkpoint", str(ckpt), "--out-trace", str(trace_path)]) == 0
        assert trace_path.exists()

    def test_checkpoint_path_is_written_as_named(self, tmp_path, candle_file):
        # np.savez given a path would write model.ckpt.npz
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--candles", str(candle_file), "--out", str(ckpt),
                    "--timesteps", "200", "--seed", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["candles.csv", "model.ckpt"]
        assert run(["evaluate", "--candles", str(candle_file), "--checkpoint", str(ckpt)]) == 0

    def test_train_computes_features_once(self, tmp_path, candle_file, feature_calls):
        assert run(["train", "--candles", str(candle_file), "--out", str(tmp_path / "a.npz"),
                    "--timesteps", "300", "--seed", "1"]) == 0
        assert feature_calls == [700]

    @pytest.mark.parametrize("command,calls", [("baseline", []), ("evaluate", [700])])
    def test_features_only_for_observations(self, tmp_path, candle_file, feature_calls,
                                            command, calls):
        # the passive baseline is scored without observations, so it never
        # builds the tape's observation block; a greedy rollout builds it once
        args = {"baseline": [], "evaluate": ["--checkpoint", str(tmp_path / "agent.npz")]}
        write_checkpoint(tmp_path / "agent.npz")
        assert run([command, "--candles", str(candle_file), *args[command]]) == 0
        assert feature_calls == calls

    def test_bad_spec_file_exits_1(self, tmp_path, candle_file, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("an agent was trained")

        monkeypatch.setattr(ppo, "train", no_training)
        spec_file = tmp_path / "spec.json"
        bad_specs = ({"clip_range": 7.0}, {"hidden_layers": [8.5]}, {"hidden_layers": 8},
                     {"action_set": [0, "10", 20]}, {"learning_rate": float("nan")},
                     {"value_coef": float("nan")}, {"entropy_coef": float("inf")})
        for bad in bad_specs:
            spec_file.write_text(json.dumps(bad))
            assert run(["train", "--candles", str(candle_file),
                        "--out", str(tmp_path / "a.npz"), "--spec", str(spec_file)]) == 1
        # zero timesteps is a bad spec too, not a request for the default
        assert run(["train", "--candles", str(candle_file),
                    "--out", str(tmp_path / "a.npz"), "--timesteps", "0"]) == 1
        assert capsys.readouterr().err.count("config error") == len(bad_specs) + 1

    def test_non_object_spec_file_exits_1(self, tmp_path, candle_file, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[1, 2]")
        assert run(["train", "--candles", str(candle_file), "--out", str(tmp_path / "a.npz"),
                    "--spec", str(spec_file), "--timesteps", "5"]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_gae_lambda_spec_key_exits_1(self, tmp_path, candle_file, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"gae_lambda": 0.95}))
        assert run(["train", "--candles", str(candle_file),
                    "--out", str(tmp_path / "a.npz"), "--spec", str(spec_file)]) == 1
        assert "gae_lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("spec.bogus", 1), ("timesteps", None), ("actor_w1", None), ("meta", None),
        ("actor_layers", "2"), ("critic_layers", 2.0), ("timesteps", "5"),
        ("stopped_early", "no"), ("spec.hidden_layers", 8), ("meta", [1, 2]), ("spec", [1]),
    ], ids=["spec.bogus", "timesteps", "actor_w1", "meta", "actor_layers=2",
            "critic_layers=2.0", "timesteps=5", "stopped_early=no", "spec.hidden_layers=8",
            "meta=list", "spec=list"])
    def test_malformed_checkpoint_exits_1(self, tmp_path, candle_file, capsys, key, value):
        ckpt = tmp_path / "agent.npz"
        write_checkpoint(ckpt)
        blob = dict(np.load(ckpt, allow_pickle=False))
        meta = json.loads(str(blob["meta"]))
        if value is None:
            meta.pop(key, None)  # a key the metadata lacks
        elif key == "meta":
            meta = value  # metadata that is not an object
        elif key.startswith("spec."):
            meta["spec"][key[len("spec."):]] = value  # a bad or unknown spec entry
        else:
            meta[key] = value  # a metadata entry of the wrong type
        blob["meta"] = json.dumps(meta)
        if value is None:
            blob.pop(key, None)  # an array the file lacks
        np.savez(ckpt, **blob)
        assert run(["evaluate", "--candles", str(candle_file), "--checkpoint", str(ckpt)]) == 1
        assert key.split(".")[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("n_out", [2, 4])
    def test_actor_without_one_output_per_action_exits_1(self, tmp_path, candle_file, capsys,
                                                         n_out):
        """A 2-output actor could never take the spec's third action, and a
        4-output one fails only if its argmax reaches index 3."""
        ckpt = tmp_path / "agent.npz"
        write_checkpoint(ckpt)
        blob = dict(np.load(ckpt, allow_pickle=False))
        blob["actor_w1"], blob["actor_b1"] = np.zeros((4, n_out)), np.zeros(n_out)
        np.savez(ckpt, **blob)
        assert run(["evaluate", "--candles", str(candle_file), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint actor has layer sizes [4, {n_out}] after its inputs, but its "
            f"spec asks for [4, 3]\n")

    def test_plain_array_checkpoint_exits_1(self, tmp_path, candle_file, capsys):
        # an .npy file under a checkpoint's name: np.load reads it as one array
        ckpt = tmp_path / "x.ckpt"
        with open(ckpt, "wb") as fh:
            np.save(fh, np.zeros(3))
        assert run(["evaluate", "--candles", str(candle_file), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt} is not a checkpoint archive\n"


class TestExperiment:
    def _config(self, tmp_path, candles, **extra):
        config = {
            "data": str(candles),
            "output_dir": str(tmp_path / "results"),
            "train_len": 400, "test_len": 100, "stride": 100,
            "n_agents": 1, "seed": 0,
            "passive_width": 50, "passive_period": 40,
            "grid": {"action_sets": [[0, 20, 50]], "activations": ["tanh"],
                     "hidden_layers": [[4]], "learning_rates": [1e-3],
                     "clip_ranges": [0.2], "entropy_coefs": [1e-3],
                     "gammas": [0.99]},
            "training": {"rollout_length": 200, "total_timesteps": 400,
                         "patience": 50},
        }
        config.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_miniature_run(self, tmp_path, candle_file, capsys):
        path = self._config(tmp_path, candle_file)
        assert run(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "results" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        wins = sum(float(r["active_reward"]) > float(r["passive_reward"]) for r in rows)
        assert out == f"active wins {wins} of {len(rows)}\n"
        assert (tmp_path / "results" / "wins.txt").read_text() == out

    def test_missing_data_path_exits_2(self, tmp_path):
        path = self._config(tmp_path, tmp_path / "missing.csv")
        assert run(["experiment", "--config", str(path)]) == 2

    @pytest.mark.parametrize("bad", [{"passive_width": 55}, {"passive_period": 0},
                                     {"gas_mode": "per_tx"},
                                     {"training": {"gae_lambda": None}},
                                     {"passive_width": "50"}, {"x0": "2"}, {"n_agents": "3"},
                                     {"n_jobs": "2"}, {"n_jobs": 0}, {"seed": "a"},
                                     {"passive_period": 1.5}, {"n_agents": True},
                                     {"x0": float("nan")},
                                     {"training": {"total_timesteps": "100"}},
                                     {"training": {"epochs": 0}},
                                     {"training": {"improvement_threshold": "0.1"}},
                                     {"pool": {"fee_rate": 0.0005, "tick_spacing": 10,
                                               "gas_cost": float("nan")}}],
                             ids=["width", "period", "gas_mode", "gae_lambda", "width_str",
                                  "x0_str", "n_agents_str", "n_jobs_str", "n_jobs_zero",
                                  "seed_str", "period_float", "n_agents_bool", "x0_nan",
                                  "timesteps_str", "epochs_zero", "threshold_str",
                                  "gas_cost_nan"])
    def test_bad_config_exits_1_before_training(self, tmp_path, candle_file, monkeypatch,
                                                capsys, bad):
        from activelp import harness

        def no_training(*args, **kwargs):
            raise AssertionError("an agent was trained")

        monkeypatch.setattr(ppo, "train_population", no_training)
        monkeypatch.setattr(harness, "train_population", no_training)
        path = self._config(tmp_path, candle_file, **bad)
        assert run(["experiment", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": "x"}))
        assert run(["experiment", "--config", str(path)]) == 1

    def test_seeded_determinism_byte_identical_summary(self, tmp_path, candle_file):
        path_a = self._config(tmp_path, candle_file,
                              output_dir=str(tmp_path / "ra"))
        assert run(["experiment", "--config", str(path_a)]) == 0
        path_b = self._config(tmp_path, candle_file,
                              output_dir=str(tmp_path / "rb"))
        assert run(["experiment", "--config", str(path_b)]) == 0
        assert ((tmp_path / "ra" / "summary.csv").read_bytes()
                == (tmp_path / "rb" / "summary.csv").read_bytes())

    def test_report_command(self, tmp_path, candle_file, capsys):
        path = self._config(tmp_path, candle_file)
        assert run(["experiment", "--config", str(path)]) == 0
        capsys.readouterr()
        assert run(["report", "--results", str(tmp_path / "results")]) == 0
        assert "active wins" in capsys.readouterr().out

    def test_report_reads_the_summary_of_a_reused_output_dir(self, tmp_path, candle_file,
                                                              capsys):
        # 8 windows, then 3 into the same output_dir: windows 03-07 stay on
        # disk, but the summary lists only the last run's 3
        eight = self._config(tmp_path, candle_file, train_len=200, test_len=50, stride=60)
        assert run(["experiment", "--config", str(eight)]) == 0
        assert capsys.readouterr().out.endswith(" of 8\n")
        three = self._config(tmp_path, candle_file)
        assert run(["experiment", "--config", str(three)]) == 0
        wins = capsys.readouterr().out
        assert wins.endswith(" of 3\n")
        results = tmp_path / "results"
        assert (results / "windows" / "window_07" / "cumulative.csv").exists()
        assert run(["report", "--results", str(results)]) == 0
        with open(results / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        want = "".join(f"window_{int(r['window']):02d}: active "
                       f"{float(r['active_reward']):.4f} passive "
                       f"{float(r['passive_reward']):.4f}\n" for r in rows)
        assert capsys.readouterr().out == want + wins
        assert (results / "wins.txt").read_text() == wins

    def test_report_prints_windows_in_index_order(self, tmp_path, capsys):
        (tmp_path / "summary.csv").write_text(
            "window,end_of_test,active_reward,passive_reward\r\n"
            "100,2021-01-05T00:00:00Z,1.0,2.0\r\n"
            "9,2021-01-01T00:00:00Z,3.5,-1.0\r\n"
            "10,2021-01-02T00:00:00Z,-0.0,0.25\r\n")
        assert run(["report", "--results", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ("window_09: active 3.5000 passive -1.0000\n"
                                           "window_10: active -0.0000 passive 0.2500\n"
                                           "window_100: active 1.0000 passive 2.0000\n"
                                           "active wins 1 of 3\n")
        assert (tmp_path / "wins.txt").read_text() == "active wins 1 of 3\n"

    def test_report_on_empty_dir_exits_1(self, tmp_path):
        assert run(["report", "--results", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text", ["window,active,passive\r\n0,1.0,2.0\r\n",
                                      "window,end_of_test,active_reward,passive_reward\r\n"
                                      "0,2021-01-01T00:00:00Z,1.0\r\n"],
                             ids=["no_columns", "short_row"])
    def test_report_without_cumulative_values_exits_1(self, tmp_path, capsys, text):
        (tmp_path / "summary.csv").write_text(text)
        assert run(["report", "--results", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "summary.csv" in err
        assert not (tmp_path / "wins.txt").exists()

    def test_failed_window_exits_3(self, tmp_path, candle_file, monkeypatch):
        from activelp import harness as h

        def always_failed(series, window, *args, **kwargs):
            return h.WindowResult(window=window,
                                  test_end_ts=int(series.timestamps[window.test_end - 1]),
                                  agents=[], selected=None, active_trace=None,
                                  passive_trace=None, failed=True)

        monkeypatch.setattr(h, "run_window", always_failed)
        path = self._config(tmp_path, candle_file)
        assert run(["experiment", "--config", str(path)]) == 3


class TestUsage:
    def test_no_command_exits_1(self):
        assert run([]) == 1

    def test_unknown_command_exits_1(self):
        assert run(["frobnicate"]) == 1


class TestFreshProcessExitCodes:
    """Each command in a fresh process, as the `activelp` script runs it. The
    tests above share one process in which every module is loaded, so they
    cannot see an error mapping that depends on what a command loaded."""

    @staticmethod
    def run_fresh(*argv):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = "import sys; from activelp.cli import main; sys.exit(main())"
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_non_object_spec_is_a_config_error(self, tmp_path, candle_file):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[1, 2]")
        done = self.run_fresh("train", "--candles", candle_file, "--out", tmp_path / "a.npz",
                              "--spec", spec_file)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("config error:")
        assert not (tmp_path / "a.npz").exists()

    def test_bad_experiment_config_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": "x"}))
        done = self.run_fresh("experiment", "--config", path)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("config error:")

    def test_gapped_candles_are_a_data_error(self, tmp_path, candle_file):
        gapped = tmp_path / "gapped.csv"
        lines = candle_file.read_text().splitlines()
        del lines[5]
        gapped.write_text("\n".join(lines) + "\n")
        done = self.run_fresh("ingest", "--candles", gapped, "--out", tmp_path / "out.csv")
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("data error:")

    def test_unaligned_baseline_width_is_an_error(self, candle_file):
        done = self.run_fresh("baseline", "--candles", candle_file, "--width", "55")
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:")
