"""repro — RL-based quantum circuit compiler optimization.

Reproduction of "Compiler Optimization for Quantum Computing Using
Reinforcement Learning" (Quetschlich, Burgholzer, Wille — DAC 2023).

The package models quantum circuit compilation as a Markov Decision Process
whose actions are individual compilation passes (synthesis, layout, routing,
device-independent optimization) drawn from multiple compiler styles, and
trains a PPO agent to pick the best sequence of passes for a given circuit
and optimization objective (expected fidelity, critical depth, or their
combination).

All compilation strategies — the trained RL model, every Qiskit-style and
TKET-style preset level, and the ``best-of`` meta-backend — sit behind one
facade and a pluggable backend registry:

    import repro

    circuit = repro.benchmark_circuit("qft", 5)
    result = repro.compile(circuit, backend="qiskit-o3", device="ibmq_washington")
    print(result.reward, result.backend, result.wall_time)

    predictor = repro.Predictor(reward="fidelity")
    predictor.train(total_timesteps=2_000)
    repro.register_backend("rl", predictor.as_backend())
    result = repro.compile(circuit, backend="rl")

    batch = repro.compile_batch(
        repro.benchmark_suite(2, 6), backends=["rl", "qiskit-o3", "tket-o2"]
    )
"""

from __future__ import annotations

__version__ = "1.1.0"

from .api import (
    BatchResult,
    BestOfBackend,
    CompilationCache,
    CompilationResult,
    CompilerBackend,
    PredictorBackend,
    PresetBackend,
    UnknownBackendError,
    compile,
    compile_batch,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from .bench import available_benchmarks, benchmark_circuit, benchmark_suite
from .circuit import Gate, Instruction, QuantumCircuit
from .compilers import preset_pass_manager
from .core import CompilationEnv, Predictor
from .devices import Device, get_device, list_devices
from .passes import (
    PassRole,
    UnknownPassError,
    available_passes,
    pass_catalog,
    register_pass,
    resolve_pass,
    unregister_pass,
)
from .pipeline import (
    AnalysisCache,
    CacheStore,
    CostAwareStore,
    DictStore,
    LruCache,
    PassManager,
    RepeatUntilStable,
    Stage,
    TransformCache,
)
from .reward import combined_reward, critical_depth_reward, expected_fidelity
from .rl import SyncVectorEnv, make_compilation_vec_env
from .service import (
    CacheServer,
    CompileService,
    DeadlineExceeded,
    ServiceClient,
    ServiceTimeout,
    SharedCacheStore,
)

__all__ = [
    "__version__",
    "QuantumCircuit",
    "Gate",
    "Instruction",
    "Device",
    "get_device",
    "list_devices",
    "Predictor",
    "CompilationEnv",
    "CompilationResult",
    # unified compilation API
    "compile",
    "compile_batch",
    "BatchResult",
    "CompilationCache",
    "CompilerBackend",
    "PresetBackend",
    "PredictorBackend",
    "BestOfBackend",
    "UnknownBackendError",
    "register_backend",
    "unregister_backend",
    "list_backends",
    "get_backend",
    # pipeline layer (declarative scheduling + shared analysis cache)
    "PassManager",
    "Stage",
    "RepeatUntilStable",
    "AnalysisCache",
    "TransformCache",
    "CacheStore",
    "CostAwareStore",
    "DictStore",
    "LruCache",
    "preset_pass_manager",
    # pass registry (pluggable stage slots; see repro.passes for the mixins)
    "PassRole",
    "UnknownPassError",
    "register_pass",
    "unregister_pass",
    "resolve_pass",
    "available_passes",
    "pass_catalog",
    # compile-service subsystem (request queue + worker pools + shared cache)
    "CompileService",
    "ServiceClient",
    "CacheServer",
    "SharedCacheStore",
    "DeadlineExceeded",
    "ServiceTimeout",
    # vectorised environment fleets (rollout collection at fleet throughput)
    "SyncVectorEnv",
    "make_compilation_vec_env",
    # removed shims kept as pointed errors (use repro.compile with a backend name)
    "expected_fidelity",
    "critical_depth_reward",
    "combined_reward",
    "benchmark_circuit",
    "benchmark_suite",
    "available_benchmarks",
]
