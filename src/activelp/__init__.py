"""activelp: concentrated-liquidity market-making simulator and PPO trainer."""

from .amm import (PoolSpec, Position, Reserves, align_range, fee_for_move,
                  impermanent_loss, liquidity_from_x, lvr_penalty,
                  position_value, price_at_tick, range_reserves, reserves, tick_index)
from .data import DataError, PriceSeries, gbm_generate, load_candles, resample_hourly
from .env import (EnvConfig, EpisodeTrace, FeatureStats, LPEnv, MarketTape,
                  compute_features, compute_stats, replay, run_passive, run_policy)
from .harness import (ConfigError, ExperimentConfig, SearchGrid, Window,
                      WindowResult, emit_report, make_windows, run_experiment,
                      run_window, sample_spec)
from .ppo import (AgentSpec, Categorical, Mlp, RolloutBatch, TrainingDiverged,
                  TrainResult, advantages, compute_returns, greedy_action_fn,
                  load_checkpoint, ppo_objective, save_checkpoint, train, train_population)

__version__ = "0.1.0"
