"""Vectorised environment fleets: step N environments through one API.

Training throughput of the RL compiler is bounded by how fast rollouts are
collected, and a single :class:`~repro.core.environment.CompilationEnv` steps
one circuit at a time.  :class:`SyncVectorEnv` steps N environments
in-process.  For compilation fleets built through
:func:`make_compilation_vec_env` the members share one
:class:`~repro.pipeline.AnalysisCache` *and* one
:class:`~repro.pipeline.TransformCache`, and derive pass seeds from the
circuit state (``seed_mode="state"``), so any member applying an action to a
circuit state the fleet has seen before reuses the compiled result instead of
re-running the pass.  Training rollouts revisit the same (state, action)
pairs constantly — the same initial circuits every epoch, converging policies
replaying the same flows — which is where the fleet's aggregate
env-steps/sec multiplier comes from on a single core.

The fleet offers batched ``reset`` / ``step`` / ``action_masks`` with
**auto-reset** semantics — when a member's episode ends, the member is reset
immediately and the *initial* observation of the next episode is returned,
while the final observation and info of the finished episode are surfaced in
``infos["final_observation"]`` / ``infos["final_info"]``.  PPO needs the
final observation to bootstrap the value of truncated states.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .env import Env

__all__ = ["SyncVectorEnv", "make_compilation_vec_env"]


class SyncVectorEnv:
    """N environments stepped sequentially in one loop behind a batched API.

    ``observation_space`` and ``action_space`` describe a *single* member
    environment; batched arrays carry a leading ``num_envs`` axis.
    """

    def __init__(self, env_fns: Sequence[Callable[[], Env]]):
        if not env_fns:
            raise ValueError("SyncVectorEnv needs at least one environment")
        self.envs: list[Env] = [fn() for fn in env_fns]
        self.num_envs = len(self.envs)
        self.observation_space = self.envs[0].observation_space
        self.action_space = self.envs[0].action_space

    @classmethod
    def from_envs(cls, envs: Sequence[Env]) -> "SyncVectorEnv":
        """Wrap already-constructed environments (used for the n_envs=1 path)."""
        return cls([(lambda env=env: env) for env in envs])

    def reset(self, *, seed: int | None = None) -> tuple[np.ndarray, list[dict]]:
        """Reset every member; member ``i`` is seeded with ``seed + i``."""
        observations = []
        infos = []
        for i, env in enumerate(self.envs):
            obs, info = env.reset(seed=None if seed is None else seed + i)
            observations.append(obs)
            infos.append(info)
        return np.stack(observations), infos

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
        """Step every member with its action; auto-reset finished episodes.

        Returns ``(observations, rewards, terminated, truncated, infos)``
        with arrays of shape ``(num_envs, ...)``.  ``infos`` is a dict with
        per-env lists under ``"infos"``, and — for members whose episode just
        ended — the pre-reset observation/info under ``"final_observation"``
        and ``"final_info"`` (``None`` elsewhere).
        """
        actions = np.asarray(actions)
        if actions.shape != (self.num_envs,):
            raise ValueError(f"expected {self.num_envs} actions, got shape {actions.shape}")
        observations = []
        rewards = np.zeros(self.num_envs)
        terminated = np.zeros(self.num_envs, dtype=bool)
        truncated = np.zeros(self.num_envs, dtype=bool)
        infos: dict = {
            "infos": [None] * self.num_envs,
            "final_observation": [None] * self.num_envs,
            "final_info": [None] * self.num_envs,
        }
        for i, env in enumerate(self.envs):
            obs, reward, term, trunc, info = env.step(int(actions[i]))
            if term or trunc:
                infos["final_observation"][i] = obs
                infos["final_info"][i] = info
                obs, _ = env.reset()
            observations.append(obs)
            rewards[i] = reward
            terminated[i] = term
            truncated[i] = trunc
            infos["infos"][i] = info
        return np.stack(observations), rewards, terminated, truncated, infos

    def action_masks(self) -> np.ndarray:
        """Stacked ``(num_envs, n_actions)`` boolean masks of valid actions."""
        return np.stack([env.action_masks() for env in self.envs])

    def close(self) -> None:
        for env in self.envs:
            env.close()


def make_compilation_vec_env(
    circuits,
    n_envs: int,
    *,
    reward: str = "fidelity",
    device_name: str | None = None,
    max_steps: int = 30,
    seed: int = 0,
) -> SyncVectorEnv:
    """Build a fleet of N :class:`~repro.core.environment.CompilationEnv`\\ s.

    All members train on the same circuit list; decorrelation comes from the
    per-member reset seeds (:meth:`SyncVectorEnv.reset` seeds member ``i``
    with ``seed + i``), which drive each member's independent per-epoch
    shuffle of the episode order — members cover different circuits at any
    instant while every member still sees the whole list each epoch.

    The members share one :class:`~repro.pipeline.AnalysisCache` and one
    :class:`~repro.pipeline.TransformCache` and use state-keyed pass seeds
    (``seed_mode="state"``): applying a pass to a circuit state is done once
    per fleet, not once per member.
    """
    if n_envs < 1:
        raise ValueError("n_envs must be at least 1")
    circuits = list(circuits)
    if not circuits:
        raise ValueError("make_compilation_vec_env needs at least one circuit")

    from ..core.environment import CompilationEnv
    from ..pipeline import AnalysisCache, TransformCache

    analysis_cache = AnalysisCache()
    # Pre-warm the fleet's shared cache with one batched feature sweep:
    # every member's first observation of every training circuit is a
    # cache hit instead of a cold per-circuit extraction.
    analysis_cache.warm_features(circuits)
    transform_cache = TransformCache()
    envs = [
        CompilationEnv(
            circuits,
            reward=reward,
            device_name=device_name,
            max_steps=max_steps,
            seed=seed,
            analysis_cache=analysis_cache,
            transform_cache=transform_cache,
            seed_mode="state",
        )
        for _ in range(n_envs)
    ]
    return SyncVectorEnv.from_envs(envs)
