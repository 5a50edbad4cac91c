"""Tests for the vectorised environment fleet layer (``repro.rl.vecenv``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import benchmark_circuit
from repro.core import CompilationEnv
from repro.pipeline import AnalysisCache, TransformCache
from repro.rl import (
    PPO,
    Box,
    Discrete,
    Env,
    PPOConfig,
    SyncVectorEnv,
    make_compilation_vec_env,
)


class CorridorEnv(Env):
    """Walk right to the goal; truncates at a step limit."""

    def __init__(self, length: int = 5, limit: int = 12):
        self.length = length
        self.limit = limit
        self.observation_space = Box(0.0, 1.0, (2,))
        self.action_space = Discrete(2)
        self.position = 0
        self.steps = 0
        self.episodes = 0

    def _obs(self):
        return np.array([self.position / self.length, self.steps / self.limit])

    def reset(self, *, seed=None):
        self.position = 0
        self.steps = 0
        self.episodes += 1
        return self._obs(), {"episode": self.episodes}

    def step(self, action):
        self.steps += 1
        if action == 1:
            self.position += 1
        terminated = self.position >= self.length
        reward = 1.0 if terminated else 0.0
        truncated = self.steps >= self.limit and not terminated
        return self._obs(), reward, terminated, truncated, {}

    def action_masks(self):
        return np.ones(2, dtype=bool)


def _corridor_fns(n):
    return [lambda: CorridorEnv() for _ in range(n)]


TINY_CIRCUITS = [
    benchmark_circuit("ghz", 3),
    benchmark_circuit("qft", 3),
    benchmark_circuit("wstate", 3),
]


class TestSyncVectorEnv:
    def test_batched_shapes(self):
        vec = SyncVectorEnv(_corridor_fns(3))
        obs, infos = vec.reset(seed=0)
        assert obs.shape == (3, 2)
        assert len(infos) == 3
        assert vec.action_masks().shape == (3, 2)
        obs, rewards, terminated, truncated, step_infos = vec.step(np.ones(3, dtype=int))
        assert obs.shape == (3, 2)
        assert rewards.shape == terminated.shape == truncated.shape == (3,)
        assert len(step_infos["infos"]) == 3

    def test_requires_envs_and_matching_action_count(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])
        vec = SyncVectorEnv(_corridor_fns(2))
        vec.reset(seed=0)
        with pytest.raises(ValueError):
            vec.step(np.ones(3, dtype=int))

    def test_auto_reset_surfaces_final_observation(self):
        vec = SyncVectorEnv(_corridor_fns(1))
        vec.reset(seed=0)
        for _ in range(4):
            _obs, _r, terminated, _t, infos = vec.step(np.array([1]))
            assert not terminated[0]
            assert infos["final_observation"][0] is None
        obs, rewards, terminated, _truncated, infos = vec.step(np.array([1]))
        assert terminated[0] and rewards[0] == 1.0
        # The returned observation is the *reset* one; the episode's last
        # observation is surfaced separately for value bootstrapping.
        final = infos["final_observation"][0]
        assert final is not None and final[0] == pytest.approx(1.0)
        assert obs[0, 0] == pytest.approx(0.0)
        assert vec.envs[0].episodes == 2

    def test_truncation_reported_and_reset(self):
        vec = SyncVectorEnv(_corridor_fns(1))
        vec.reset(seed=0)
        truncated = np.array([False])
        for _ in range(12):
            _obs, _r, _te, truncated, infos = vec.step(np.array([0]))
        assert truncated[0]
        assert infos["final_info"][0] is not None


class TestCompilationFleet:
    def _make_singles(self, n_envs, **kwargs):
        return [
            CompilationEnv(
                TINY_CIRCUITS,
                analysis_cache=AnalysisCache(),
                transform_cache=TransformCache(),
                seed_mode="state",
                **kwargs,
            )
            for _ in range(n_envs)
        ]

    def test_fleet_equals_sequential_single_envs(self):
        """N-env fleet rollouts == N sequential single-env rollouts (obs/rewards/masks)."""
        n_envs = 3
        kwargs = {"device_name": "ibmq_washington", "max_steps": 6, "seed": 5}
        vec = make_compilation_vec_env(TINY_CIRCUITS, n_envs, **kwargs)
        singles = self._make_singles(n_envs, **kwargs)

        obs_vec, _ = vec.reset(seed=7)
        obs_single = [env.reset(seed=7 + i)[0] for i, env in enumerate(singles)]
        np.testing.assert_array_equal(obs_vec, np.stack(obs_single))

        for _step in range(15):
            masks_vec = vec.action_masks()
            masks_single = np.stack([env.action_masks() for env in singles])
            np.testing.assert_array_equal(masks_vec, masks_single)
            # A deterministic scripted policy: the first valid action.
            actions = masks_vec.argmax(axis=1)
            obs_vec, rewards, terminated, truncated, infos = vec.step(actions)
            for i, env in enumerate(singles):
                obs, reward, term, trunc, _info = env.step(int(actions[i]))
                assert reward == rewards[i]
                assert term == terminated[i] and trunc == truncated[i]
                if term or trunc:
                    np.testing.assert_array_equal(infos["final_observation"][i], obs)
                    obs, _ = env.reset()
                np.testing.assert_array_equal(obs_vec[i], obs)

    def test_scripted_flow_terminates_across_fleet(self):
        vec = make_compilation_vec_env(
            TINY_CIRCUITS, 2, device_name="ibmq_washington", max_steps=10, seed=2
        )
        vec.reset(seed=2)
        flow = [
            "synthesis_basis_translator",
            "map_sabre_layout_sabre_routing",
            "terminate",
        ]
        member = vec.envs[0]
        terminated = np.zeros(2, dtype=bool)
        rewards = np.zeros(2)
        for name in flow:
            index = member.action_by_name(name).index
            _obs, rewards, terminated, _trunc, infos = vec.step(np.full(2, index))
        assert terminated.all()
        assert (rewards > 0).all()
        for info in infos["final_info"]:
            assert info["final_reward"] > 0

    def test_fleet_members_share_caches_and_hit(self):
        vec = make_compilation_vec_env(
            [TINY_CIRCUITS[0]], 4, device_name="ibmq_washington", max_steps=10, seed=2
        )
        first = vec.envs[0]
        assert all(env.analysis_cache is first.analysis_cache for env in vec.envs)
        assert all(env.transform_cache is first.transform_cache for env in vec.envs)

        vec.reset(seed=2)
        flow = ["synthesis_basis_translator", "optimize_optimize_1q_gates", "terminate"]
        for name in flow:
            index = first.action_by_name(name).index
            vec.step(np.full(4, index))
        # All members stepped the same circuit states: the first member pays
        # for each pass application, the other three reuse the result.
        stats = first.transform_cache.stats()
        pass_actions = len(flow) - 1  # terminate is not a pass
        assert stats["misses"] == pass_actions
        assert stats["hits"] == pass_actions * 3
        assert first.analysis_cache.hit_rate > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            make_compilation_vec_env(TINY_CIRCUITS, 0)
        with pytest.raises(ValueError):
            make_compilation_vec_env([], 2)


class TestVectorisedPPO:
    def test_single_env_is_the_n1_special_case(self):
        """PPO(raw env) and PPO(SyncVectorEnv of 1) are the same training path."""
        config = PPOConfig(n_steps=32, batch_size=16, n_epochs=2)
        raw = PPO(CorridorEnv(), config, seed=4)
        wrapped = PPO(SyncVectorEnv.from_envs([CorridorEnv()]), config, seed=4)
        raw.learn(200)
        wrapped.learn(200)
        for a, b in zip(raw.policy_net.parameters(), wrapped.policy_net.parameters()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(raw.value_net.parameters(), wrapped.value_net.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_greedy_sequences_identical_vec_vs_single_compilation(self):
        """Acceptance: fixed-seed greedy policy, vectorised path == n_envs=1 path."""
        config = PPOConfig(n_steps=16, batch_size=8, n_epochs=2)

        def env_factory():
            return CompilationEnv(
                [TINY_CIRCUITS[0]], device_name="ibmq_washington", max_steps=8, seed=3
            )

        single = PPO(env_factory(), config, seed=6)
        vectorised = PPO(SyncVectorEnv.from_envs([env_factory()]), config, seed=6)
        single.learn(64)
        vectorised.learn(64)

        def greedy_actions(agent: PPO) -> list[str]:
            env = env_factory()
            obs, _ = env.reset(seed=3)
            names = []
            terminated = truncated = False
            while not (terminated or truncated):
                mask = env.action_masks()
                action = agent.predict(obs, mask, deterministic=True)
                if not mask[action]:
                    action = int(np.flatnonzero(mask)[0])
                names.append(env.actions[action].name)
                obs, _r, terminated, truncated, _i = env.step(action)
            return names

        assert greedy_actions(single) == greedy_actions(vectorised)

    def test_ppo_learns_on_vectorised_corridor(self):
        vec = SyncVectorEnv(_corridor_fns(4))
        agent = PPO(vec, PPOConfig(n_steps=32, batch_size=32, n_epochs=4, ent_coef=0.0), seed=0)
        summary = agent.learn(4000)
        assert summary.mean_episode_reward > 0.9
        assert summary.total_timesteps >= 4000
        assert summary.episodes > 0

    def test_ppo_trains_on_compilation_fleet(self):
        vec = make_compilation_vec_env(
            TINY_CIRCUITS, 2, device_name="ibmq_washington", max_steps=8, seed=1
        )
        agent = PPO(vec, PPOConfig(n_steps=16, batch_size=16, n_epochs=1), seed=1)
        summary = agent.learn(96)
        assert summary.total_timesteps >= 96

    def test_predictor_trains_with_fleet(self):
        from repro.core import Predictor

        predictor = Predictor(
            reward="fidelity",
            device_name="ibmq_washington",
            max_steps=8,
            ppo_config=PPOConfig(n_steps=16, batch_size=16, n_epochs=1),
            seed=1,
            n_envs=2,
        )
        predictor.train(TINY_CIRCUITS, total_timesteps=64)
        assert predictor.is_trained
        result = predictor.compile(TINY_CIRCUITS[0])
        assert result.reached_done

    def test_predictor_rejects_bad_fleet_size(self):
        from repro.core import Predictor

        with pytest.raises(ValueError):
            Predictor(n_envs=0)
