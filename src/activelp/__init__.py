"""activelp: concentrated-liquidity market-making simulator and PPO trainer.

`import activelp` loads no submodule. Each exported name, and each
submodule, is imported from its home module on first use (PEP 562), so a
command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "amm": ("PoolSpec", "price_at_tick", "tick_index"),
    "data": ("DataError", "PriceSeries", "gbm_generate", "load_candles", "resample_hourly"),
    "env": ("EnvConfig", "EpisodeTrace", "FeatureStats", "LPEnv", "MarketTape",
            "compute_features", "compute_stats", "replay", "run_passive", "run_policy"),
    "harness": ("ConfigError", "ExperimentConfig", "SearchGrid", "Window", "WindowResult",
                "emit_report", "make_windows", "run_experiment", "run_window", "sample_spec"),
    "ppo": ("AgentSpec", "Mlp", "RolloutBatch", "TrainingDiverged", "TrainResult",
            "advantages", "compute_returns", "load_checkpoint", "save_checkpoint", "train",
            "train_population"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("amm", "cli", "data", "env", "harness", "indicators", "ppo")

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
