"""Proximal Policy Optimization with invalid-action masking (NumPy).

A from-scratch implementation of the PPO algorithm (Schulman et al., 2017)
matching the behaviour of Stable-Baselines3's ``MaskablePPO``: clipped
surrogate objective, GAE-lambda advantages, entropy bonus, value-function
loss, minibatch Adam updates, and boolean action masks supplied by the
environment at every step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .buffers import RolloutBuffer
from .distributions import MaskedCategorical
from .env import Env
from .networks import MLP, Adam
from .vecenv import SyncVectorEnv

__all__ = ["PPOConfig", "PPO", "TrainingSummary"]


@dataclass
class PPOConfig:
    """Hyperparameters (defaults follow Stable-Baselines3's PPO defaults)."""

    learning_rate: float = 3e-4
    n_steps: int = 256
    batch_size: int = 64
    n_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    ent_coef: float = 0.01
    vf_coef: float = 0.5
    max_grad_norm: float = 0.5
    hidden_sizes: tuple[int, ...] = (64, 64)


@dataclass
class TrainingSummary:
    """Aggregate statistics returned by :meth:`PPO.learn`."""

    total_timesteps: int
    episodes: int
    mean_episode_reward: float
    mean_episode_length: float
    reward_history: list[float]


class PPO:
    """PPO agent over a (maskable) environment or a vectorised fleet of them.

    A plain :class:`~repro.rl.env.Env` is wrapped into a single-member
    :class:`~repro.rl.vecenv.SyncVectorEnv`, so the single-environment path
    is literally the ``n_envs=1`` special case of the vectorised rollout
    loop: training on a raw env and on a one-member fleet consumes the same
    RNG stream and produces byte-identical updates.  (Episode resets happen
    inside the fleet now — unseeded, continuing each env's own RNG — so
    trajectories are *not* comparable with the pre-vectorisation loop, which
    drew a fresh reset seed from the agent's RNG per episode.)
    """

    def __init__(self, env: "Env | SyncVectorEnv", config: PPOConfig | None = None, seed: int = 0):
        self.env = env
        self.vec_env = env if isinstance(env, SyncVectorEnv) else SyncVectorEnv.from_envs([env])
        self.config = config or PPOConfig()
        self.rng = np.random.default_rng(seed)
        obs_dim = int(np.prod(self.vec_env.observation_space.shape))
        n_actions = self.vec_env.action_space.n
        self.policy_net = MLP(obs_dim, n_actions, self.config.hidden_sizes, seed=seed)
        self.value_net = MLP(obs_dim, 1, self.config.hidden_sizes, seed=seed + 1, output_scale=1.0)
        self.policy_optimizer = Adam(self.policy_net.parameters(), self.config.learning_rate)
        self.value_optimizer = Adam(self.value_net.parameters(), self.config.learning_rate)
        self.num_timesteps = 0
        self._episode_rewards: list[float] = []
        self._episode_lengths: list[int] = []

    # -- acting --------------------------------------------------------------------

    def predict(
        self,
        observation: np.ndarray,
        action_mask: np.ndarray | None = None,
        deterministic: bool = True,
    ) -> int:
        """Pick an action for ``observation`` (greedy by default)."""
        logits = self.policy_net(observation)
        dist = MaskedCategorical(logits, None if action_mask is None else action_mask[None, :])
        if deterministic:
            return int(dist.mode()[0])
        return int(dist.sample(self.rng)[0])

    def value(self, observation: np.ndarray) -> float:
        return float(self.value_net(observation)[0, 0])

    # -- learning -------------------------------------------------------------------

    def learn(self, total_timesteps: int, log_callback=None) -> TrainingSummary:
        """Run PPO training for ``total_timesteps`` environment steps.

        Rollouts are collected from all fleet members at once: one batched
        policy/value forward per fleet step, ``n_envs`` environment steps per
        iteration.  Episodes that hit a time limit (``truncated`` without
        ``terminated``) bootstrap the value of their final observation into
        the GAE targets instead of being treated as terminal.
        """
        config = self.config
        vec = self.vec_env
        n_envs = vec.num_envs
        obs_dim = int(np.prod(vec.observation_space.shape))
        buffer = RolloutBuffer(
            config.n_steps,
            obs_dim,
            vec.action_space.n,
            config.gamma,
            config.gae_lambda,
            n_envs=n_envs,
        )
        observations, _ = vec.reset(seed=int(self.rng.integers(2**31 - 1)))
        episode_rewards = np.zeros(n_envs)
        episode_lengths = np.zeros(n_envs, dtype=int)

        while self.num_timesteps < total_timesteps:
            buffer.reset()
            while not buffer.full and self.num_timesteps < total_timesteps:
                masks = vec.action_masks()
                logits = self.policy_net(observations)
                dist = MaskedCategorical(logits, masks)
                actions = dist.sample(self.rng)
                log_probs = dist.log_prob(actions)
                values = self.value_net(observations)[:, 0]

                next_observations, rewards, terminated, truncated, infos = vec.step(actions)
                # Time-limit bootstrapping: the truncated state is not
                # terminal, so its value stands in for the cut-off future.
                bootstrap_values = np.zeros(n_envs)
                for i in np.flatnonzero(truncated & ~terminated):
                    final_obs = infos["final_observation"][i]
                    if final_obs is not None:
                        bootstrap_values[i] = self.value(final_obs)
                buffer.add(
                    observations,
                    actions,
                    rewards,
                    terminated,
                    truncated,
                    values,
                    log_probs,
                    masks,
                    bootstrap_values,
                )
                self.num_timesteps += n_envs
                episode_rewards += rewards
                episode_lengths += 1
                for i in np.flatnonzero(terminated | truncated):
                    self._episode_rewards.append(float(episode_rewards[i]))
                    self._episode_lengths.append(int(episode_lengths[i]))
                    if log_callback is not None:
                        log_callback(
                            self.num_timesteps,
                            float(episode_rewards[i]),
                            int(episode_lengths[i]),
                        )
                    episode_rewards[i] = 0.0
                    episode_lengths[i] = 0
                observations = next_observations
            last_values = self.value_net(observations)[:, 0]
            buffer.compute_returns_and_advantages(last_values)
            self._update(buffer)

        return TrainingSummary(
            total_timesteps=self.num_timesteps,
            episodes=len(self._episode_rewards),
            mean_episode_reward=float(np.mean(self._episode_rewards[-100:]))
            if self._episode_rewards
            else 0.0,
            mean_episode_length=float(np.mean(self._episode_lengths[-100:]))
            if self._episode_lengths
            else 0.0,
            reward_history=list(self._episode_rewards),
        )

    def _update(self, buffer: RolloutBuffer) -> None:
        config = self.config
        for _ in range(config.n_epochs):
            for batch in buffer.minibatches(config.batch_size, self.rng):
                advantages = batch.advantages
                if advantages.size > 1 and advantages.std() > 1e-8:
                    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

                # --- policy update ---
                logits, policy_cache = self.policy_net.forward(batch.observations)
                dist = MaskedCategorical(logits, batch.action_masks)
                log_probs = dist.log_prob(batch.actions)
                ratio = np.exp(log_probs - batch.old_log_probs)
                unclipped = ratio * advantages
                clipped = np.clip(ratio, 1.0 - config.clip_range, 1.0 + config.clip_range) * advantages

                # gradient of -min(unclipped, clipped) w.r.t. log-prob
                use_unclipped = unclipped <= clipped
                within_clip = (ratio > 1.0 - config.clip_range) & (ratio < 1.0 + config.clip_range)
                active = use_unclipped | within_clip
                batch_size = len(batch.actions)
                grad_log_prob = -(advantages * ratio * active) / batch_size

                grad_logits = grad_log_prob[:, None] * dist.log_prob_grad_logits(batch.actions)
                grad_logits += -(config.ent_coef / batch_size) * dist.entropy_grad_logits()
                policy_grads = self.policy_net.backward(policy_cache, grad_logits)
                flat_policy = self.policy_net.flatten_grads(policy_grads)
                _clip_grads(flat_policy, config.max_grad_norm)
                self.policy_optimizer.step(flat_policy)

                # --- value update ---
                values, value_cache = self.value_net.forward(batch.observations)
                value_error = values[:, 0] - batch.returns
                grad_values = (config.vf_coef * value_error / batch_size)[:, None]
                value_grads = self.value_net.backward(value_cache, grad_values)
                flat_value = self.value_net.flatten_grads(value_grads)
                _clip_grads(flat_value, config.max_grad_norm)
                self.value_optimizer.step(flat_value)

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise policy/value weights and config to a JSON file."""
        payload = {
            "config": asdict(self.config),
            "policy": self.policy_net.state_dict(),
            "value": self.value_net.state_dict(),
            "num_timesteps": self.num_timesteps,
        }
        Path(path).write_text(json.dumps(payload))

    def load(self, path: str | Path) -> None:
        """Restore weights previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        self.policy_net.load_state_dict(payload["policy"])
        self.value_net.load_state_dict(payload["value"])
        self.num_timesteps = int(payload.get("num_timesteps", 0))


def _clip_grads(grads: list[np.ndarray], max_norm: float) -> None:
    total = float(np.sqrt(sum(float(np.sum(g**2)) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
