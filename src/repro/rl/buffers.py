"""Rollout storage and generalised advantage estimation for PPO.

The buffer is shaped ``(n_steps, n_envs, ...)`` so one instance serves both
the single-environment loop (``n_envs=1``) and vectorised rollouts collected
from a :class:`~repro.rl.vecenv.SyncVectorEnv` fleet.

Episode ends are stored as two separate flags per step:

* ``terminated`` — the MDP reached a terminal state; the value of the
  successor state is zero by definition.
* ``truncated`` — the episode was cut short (e.g. a ``max_steps`` limit);
  the successor state is *not* terminal, so its value must be bootstrapped
  into the return.  ``bootstrap_values`` carries ``V(s_final)`` for exactly
  these steps.

Conflating the two (the pre-vectorisation behaviour) biases the GAE targets
of every episode that hits the step limit: the return of the final step was
``r`` instead of ``r + gamma * V(s_final)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RolloutBuffer", "RolloutBatch"]


@dataclass
class RolloutBatch:
    """A minibatch of flattened rollout data."""

    observations: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    action_masks: np.ndarray


class RolloutBuffer:
    """Fixed-size on-policy buffer with GAE-lambda advantage computation.

    ``add`` accepts per-step data for all ``n_envs`` environments at once;
    scalars are broadcast, so single-env callers can keep passing plain
    floats/ints.
    """

    def __init__(
        self,
        buffer_size: int,
        observation_dim: int,
        num_actions: int,
        gamma: float = 0.99,
        gae_lambda: float = 0.95,
        n_envs: int = 1,
    ):
        if n_envs < 1:
            raise ValueError("n_envs must be at least 1")
        self.buffer_size = buffer_size
        self.n_envs = n_envs
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        self.observations = np.zeros((buffer_size, n_envs, observation_dim))
        self.actions = np.zeros((buffer_size, n_envs), dtype=int)
        self.rewards = np.zeros((buffer_size, n_envs))
        self.terminated = np.zeros((buffer_size, n_envs), dtype=bool)
        self.truncated = np.zeros((buffer_size, n_envs), dtype=bool)
        self.values = np.zeros((buffer_size, n_envs))
        self.log_probs = np.zeros((buffer_size, n_envs))
        self.action_masks = np.ones((buffer_size, n_envs, num_actions), dtype=bool)
        #: V(s_final) for steps where the episode was truncated (0 elsewhere)
        self.bootstrap_values = np.zeros((buffer_size, n_envs))
        self.advantages = np.zeros((buffer_size, n_envs))
        self.returns = np.zeros((buffer_size, n_envs))
        self.position = 0

    @property
    def full(self) -> bool:
        return self.position >= self.buffer_size

    def reset(self) -> None:
        self.position = 0

    def add(
        self,
        observations: np.ndarray,
        actions,
        rewards,
        terminated,
        truncated,
        values,
        log_probs,
        action_masks: np.ndarray,
        bootstrap_values=0.0,
    ) -> None:
        """Record one transition per environment (scalars broadcast to ``n_envs``)."""
        if self.full:
            raise RuntimeError("rollout buffer is full")
        index = self.position
        self.observations[index] = np.reshape(observations, (self.n_envs, -1))
        self.actions[index] = actions
        self.rewards[index] = rewards
        self.terminated[index] = terminated
        self.truncated[index] = truncated
        self.values[index] = values
        self.log_probs[index] = log_probs
        self.action_masks[index] = np.reshape(action_masks, (self.n_envs, -1))
        self.bootstrap_values[index] = bootstrap_values
        self.position += 1

    def compute_returns_and_advantages(self, last_values) -> None:
        """GAE-lambda advantages and discounted returns (SB3 convention).

        ``last_values`` are the value estimates of the observations the
        rollout stopped at (one per env), used to bootstrap episodes that
        are still running when the buffer fills.  Episodes that ended inside
        the buffer are handled per step: terminal steps contribute no
        successor value, truncated steps bootstrap the recorded
        ``bootstrap_values`` (the truncated state's value).
        """
        last_values = np.broadcast_to(
            np.asarray(last_values, dtype=float), (self.n_envs,)
        )
        last_gae = np.zeros(self.n_envs)
        for step in reversed(range(self.position)):
            ended = self.terminated[step] | self.truncated[step]
            next_non_terminal = 1.0 - ended
            if step == self.position - 1:
                next_values = last_values
            else:
                next_values = self.values[step + 1]
            # Truncated steps: the chain of future rewards is cut, but the
            # truncated state's value stands in for them.
            successor = next_values * next_non_terminal + self.bootstrap_values[step]
            delta = self.rewards[step] + self.gamma * successor - self.values[step]
            last_gae = delta + self.gamma * self.gae_lambda * next_non_terminal * last_gae
            self.advantages[step] = last_gae
        self.returns[: self.position] = (
            self.advantages[: self.position] + self.values[: self.position]
        )

    def minibatches(self, batch_size: int, rng: np.random.Generator):
        """Yield shuffled minibatches over all collected (step, env) samples."""
        total = self.position * self.n_envs
        flat = lambda array: array[: self.position].reshape(total, *array.shape[2:])  # noqa: E731
        observations = flat(self.observations)
        actions = flat(self.actions)
        log_probs = flat(self.log_probs)
        advantages = flat(self.advantages)
        returns = flat(self.returns)
        action_masks = flat(self.action_masks)
        indices = rng.permutation(total)
        for start in range(0, total, batch_size):
            batch = indices[start : start + batch_size]
            yield RolloutBatch(
                observations=observations[batch],
                actions=actions[batch],
                old_log_probs=log_probs[batch],
                advantages=advantages[batch],
                returns=returns[batch],
                action_masks=action_masks[batch],
            )
