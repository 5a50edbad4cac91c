"""High-level Predictor API: train an RL compiler and compile circuits with it.

This is the user-facing entry point of the framework, mirroring the role of
``mqt.predictor`` in the paper's released implementation::

    predictor = Predictor(reward="fidelity")
    predictor.train(total_timesteps=10_000)
    result = predictor.compile(circuit)
    result.circuit      # the compiled, executable circuit
    result.device       # the device the agent selected
    result.reward       # the achieved value of the optimization objective
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from ..api.result import CompilationResult, score_circuit
from ..circuit.circuit import QuantumCircuit
from ..features.extraction import feature_vector
from ..reward.functions import reward_function
from ..rl.ppo import PPO, PPOConfig, TrainingSummary
from .environment import CompilationEnv
from .state import CompilationState

# CompilationResult used to be defined here; it now lives in repro.api.result
# as the unified result type shared by every compiler backend, and is
# re-exported for backwards compatibility.
__all__ = ["CompilationResult", "Predictor"]


class Predictor:
    """An RL-optimized quantum compiler for a chosen optimization objective."""

    def __init__(
        self,
        reward: str = "fidelity",
        *,
        device_name: str | None = None,
        max_steps: int = 30,
        ppo_config: PPOConfig | None = None,
        seed: int = 0,
        n_envs: int = 1,
    ):
        if n_envs < 1:
            raise ValueError("n_envs must be at least 1")
        self.reward_name = reward
        self.device_name = device_name
        self.max_steps = max_steps
        self.seed = seed
        self.n_envs = n_envs
        self.ppo_config = ppo_config or PPOConfig(n_steps=128, batch_size=64, n_epochs=6)
        self._agent: PPO | None = None
        self._training_circuits: list[QuantumCircuit] | None = None
        self.training_summary: TrainingSummary | None = None

    # -- training -------------------------------------------------------------------

    def train(
        self,
        circuits: list[QuantumCircuit] | None = None,
        total_timesteps: int = 10_000,
        log_callback=None,
    ) -> TrainingSummary:
        """Train the PPO policy on ``circuits`` (default: the MQT-Bench-style suite)."""
        if circuits is None:
            from ..bench.suite import benchmark_suite

            circuits = benchmark_suite(min_qubits=2, max_qubits=8)
        self._training_circuits = list(circuits)
        if self.n_envs > 1:
            # Rollouts come from a synchronised fleet sharing one analysis
            # cache and one transform cache (see repro.rl.vecenv).
            from ..rl.vecenv import make_compilation_vec_env

            env = make_compilation_vec_env(
                self._training_circuits,
                self.n_envs,
                reward=self.reward_name,
                device_name=self.device_name,
                max_steps=self.max_steps,
                seed=self.seed,
            )
        else:
            env = self._make_env(self._training_circuits)
        self._agent = PPO(env, self.ppo_config, seed=self.seed)
        self.training_summary = self._agent.learn(total_timesteps, log_callback=log_callback)
        return self.training_summary

    def _make_env(self, circuits: list[QuantumCircuit]) -> CompilationEnv:
        return CompilationEnv(
            circuits,
            reward=self.reward_name,
            device_name=self.device_name,
            max_steps=self.max_steps,
            seed=self.seed,
        )

    @property
    def is_trained(self) -> bool:
        return self._agent is not None

    # -- inference -------------------------------------------------------------------

    def compile(
        self,
        circuit: QuantumCircuit,
        *,
        deterministic: bool = True,
        max_steps: int | None = None,
    ) -> CompilationResult:
        """Compile one circuit by greedily following the learned policy."""
        if self._agent is None:
            raise RuntimeError("the Predictor must be trained (or loaded) before compiling")
        start = perf_counter()
        env = CompilationEnv(
            [circuit],
            reward=self.reward_name,
            device_name=self.device_name,
            max_steps=max_steps or self.max_steps,
            seed=self.seed,
        )
        observation, _ = env.reset(seed=self.seed)
        terminated = truncated = False
        reward = 0.0
        while not (terminated or truncated):
            mask = env.action_masks()
            action = self._agent.predict(observation, mask, deterministic=deterministic)
            if not mask[action]:
                valid = np.flatnonzero(mask)
                action = int(valid[0])
            observation, reward, terminated, truncated, _info = env.step(action)
        if not terminated and not env.state.is_done:
            # The policy ran out of steps without finishing the flow; complete it
            # deterministically so that compile() always returns an executable circuit.
            reward = self._complete_compilation(env)
            terminated = env.state.is_done
        elif not terminated and env.state.is_done:
            reward = self._fallback_reward(env.state)
        state: CompilationState = env.state
        succeeded = state.is_done and state.device is not None
        return CompilationResult(
            circuit=state.circuit,
            device=state.device,
            reward=float(reward),
            reward_name=self.reward_name,
            actions=list(state.applied_actions),
            reached_done=state.is_done,
            backend="rl",
            scores=score_circuit(state.circuit, state.device) if succeeded else {},
            wall_time=perf_counter() - start,
            succeeded=succeeded,
            error=None if succeeded else f"policy did not finish compilation ({state.describe()})",
        )

    def evaluate(self, circuit: QuantumCircuit, reward: str | None = None) -> float:
        """Compile ``circuit`` and score it under ``reward`` (default: own objective).

        Returns 0.0 — with a :class:`RuntimeWarning` — when the policy fails to
        produce an executable circuit, so unfinished compilations no longer
        collapse silently into the score distribution.
        """
        result = self.compile(circuit)
        if not result.succeeded:
            warnings.warn(
                f"compilation of {circuit.name!r} did not finish ({result.error}); "
                "scoring it as 0.0",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
        metric = reward_function(reward or self.reward_name)
        return float(metric(result.circuit, result.device))

    def as_backend(self, name: str = "rl"):
        """Wrap this trained predictor as a registrable compiler backend."""
        from ..api.backends import PredictorBackend

        return PredictorBackend(self, name=name)

    def _complete_compilation(self, env: CompilationEnv) -> float:
        """Finish an unfinished episode with a fixed, always-valid action sequence.

        Used as a safety net when the learned policy does not reach the "Done"
        state within the step budget: select a platform/device that fits the
        circuit, synthesise, map with SABRE, and terminate.
        """
        state = env.state
        width = len(state.circuit.active_qubits() or {0})
        if state.platform is None:
            from ..devices.library import devices_for_platform, list_platforms

            for platform in ("ibm", "ionq", "rigetti", "oqc"):
                if platform not in list_platforms():
                    continue
                if any(d.num_qubits >= width for d in devices_for_platform(platform)):
                    state.platform = platform
                    break
        if state.device is None and state.platform is not None:
            from ..devices.library import devices_for_platform

            candidates = [
                d for d in devices_for_platform(state.platform) if d.num_qubits >= width
            ]
            state.device = min(candidates, key=lambda d: d.num_qubits)
        context_actions = [
            "synthesis_basis_translator",
            "map_sabre_layout_sabre_routing",
            "synthesis_basis_translator",
        ]
        from ..passes.base import PassContext

        for name in context_actions:
            if state.is_done:
                break
            action = env.action_by_name(name)
            try:
                state.circuit = action.payload(
                    state.circuit, PassContext(device=state.device, seed=self.seed)
                )
                state.applied_actions.append(name)
            except Exception:  # noqa: BLE001 - fall through, reward stays 0
                break
        return self._fallback_reward(state)

    def _fallback_reward(self, state: CompilationState) -> float:
        if state.device is not None and state.is_done:
            return float(reward_function(self.reward_name)(state.circuit, state.device))
        return 0.0

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the trained policy and predictor settings to ``path`` (JSON)."""
        if self._agent is None:
            raise RuntimeError("nothing to save: the Predictor has not been trained")
        path = Path(path)
        payload = {
            "reward": self.reward_name,
            "device_name": self.device_name,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "policy": self._agent.policy_net.state_dict(),
            "value": self._agent.value_net.state_dict(),
        }
        path.write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "Predictor":
        """Restore a Predictor previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        predictor = cls(
            reward=payload["reward"],
            device_name=payload.get("device_name"),
            max_steps=payload.get("max_steps", 30),
            seed=payload.get("seed", 0),
        )
        placeholder = QuantumCircuit(2, name="placeholder")
        placeholder.h(0)
        placeholder.cx(0, 1)
        env = predictor._make_env([placeholder])
        agent = PPO(env, predictor.ppo_config, seed=predictor.seed)
        agent.policy_net.load_state_dict(payload["policy"])
        agent.value_net.load_state_dict(payload["value"])
        predictor._agent = agent
        return predictor

    # -- introspection ----------------------------------------------------------------

    def policy_feature_importance(self, circuit: QuantumCircuit) -> dict[str, float]:
        """Rough sensitivity of the policy to each observation feature.

        Computes the change in the policy's greedy-action logit when each
        feature is perturbed by +0.05; useful for inspecting what the trained
        model pays attention to.
        """
        if self._agent is None:
            raise RuntimeError("the Predictor must be trained first")
        from ..features.extraction import FEATURE_NAMES

        base = feature_vector(circuit)
        logits = self._agent.policy_net(base)[0]
        top = int(np.argmax(logits))
        importances = {}
        for i, name in enumerate(FEATURE_NAMES):
            perturbed = base.copy()
            perturbed[i] = min(1.0, perturbed[i] + 0.05)
            new_logits = self._agent.policy_net(perturbed)[0]
            importances[name] = float(abs(new_logits[top] - logits[top]))
        return importances
