"""Reinforcement-learning substrate: env API, vectorised fleets, networks, PPO."""

from .buffers import RolloutBatch, RolloutBuffer
from .distributions import MaskedCategorical
from .env import Env
from .networks import MLP, Adam
from .ppo import PPO, PPOConfig, TrainingSummary
from .spaces import Box, Discrete
from .vecenv import SyncVectorEnv, make_compilation_vec_env

__all__ = [
    "Env",
    "SyncVectorEnv",
    "make_compilation_vec_env",
    "Box",
    "Discrete",
    "MLP",
    "Adam",
    "MaskedCategorical",
    "RolloutBuffer",
    "RolloutBatch",
    "PPO",
    "PPOConfig",
    "TrainingSummary",
]
