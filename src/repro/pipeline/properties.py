"""Shared analysis results: :class:`PropertySet` and :class:`AnalysisCache`.

Every expensive per-circuit computation in the framework — building the DAG
view, extracting the seven observation features, checking native-gate and
coupling-map executability — used to be recomputed from scratch at every
consumer: once per RL step, once per pass-pipeline stage, once per backend.
This module centralises them:

* an :class:`AnalysisPass` wraps one such computation and names the
  :class:`~repro.passes.base.AnalysisDomain` it belongs to;
* a :class:`PropertySet` holds the computed values for *one* circuit state;
* an :class:`AnalysisCache` maps circuit fingerprints
  (:meth:`~repro.circuit.circuit.QuantumCircuit.fingerprint`) to property
  sets with LRU eviction, so identical circuit states — the same training
  circuit across episodes, a no-op optimization pass, a platform-selection
  step that does not touch the circuit — share one computation.

Transformation passes declare which domains they *preserve*; the pipeline
layer calls :meth:`AnalysisCache.carry_forward` after each pass so preserved
results migrate to the new circuit's property set instead of being redone.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Iterable

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DAGCircuit
from ..devices.device import Device
from ..passes.base import AnalysisDomain

__all__ = [
    "AnalysisPass",
    "PropertySet",
    "AnalysisCache",
    "CacheStore",
    "CostAwareStore",
    "DictStore",
    "LruCache",
    "TransformCache",
    "DagAnalysis",
    "FeatureVectorAnalysis",
    "ActiveQubitsAnalysis",
    "NativeGatesAnalysis",
    "MappingAnalysis",
]


class PropertySet(dict):
    """Analysis results for one circuit state, keyed by analysis key.

    A thin ``dict`` subclass so pipeline code can attach free-form entries
    next to the structured analyses (mirroring Qiskit's property set).
    """

    def domain_keys(self, domain: str) -> list[str]:
        """All keys belonging to ``domain`` (device-keyed analyses share a prefix)."""
        return [key for key in self if key == domain or key.startswith(f"{domain}@")]


class AnalysisPass(ABC):
    """One cacheable per-circuit computation.

    Analyses are pure functions of the circuit (and, for device-dependent
    checks, the device); they never modify the circuit.  ``domain`` ties the
    analysis to the :class:`~repro.passes.base.AnalysisDomain` vocabulary that
    transformation passes use in their ``preserves`` declarations.
    """

    #: the analysis domain this computation belongs to
    domain: str = "analysis"
    #: True if the result depends on the target device
    requires_device: bool = False

    def key(self, device: Device | None = None) -> str:
        """The property-set key (device-dependent analyses key per device)."""
        if self.requires_device:
            if device is None:
                raise ValueError(f"analysis {self.domain!r} requires a device")
            return f"{self.domain}@{device.name}"
        return self.domain

    @abstractmethod
    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> Any:
        """Compute the analysis result for ``circuit``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(domain={self.domain!r})"


class DagAnalysis(AnalysisPass):
    """Dependency-DAG view of the circuit (consumed by optimization/routing)."""

    domain = AnalysisDomain.DAG

    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> DAGCircuit:
        return DAGCircuit.from_circuit(circuit)


class FeatureVectorAnalysis(AnalysisPass):
    """The seven-feature RL observation vector (the hottest analysis)."""

    domain = AnalysisDomain.FEATURES

    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> np.ndarray:
        from ..features.extraction import feature_vector

        return feature_vector(circuit)


class ActiveQubitsAnalysis(AnalysisPass):
    """Qubits touched by at least one non-barrier instruction."""

    domain = AnalysisDomain.ACTIVE_QUBITS

    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> frozenset[int]:
        return frozenset(circuit.active_qubits())


class NativeGatesAnalysis(AnalysisPass):
    """Per-device check: does the circuit only use native gates?"""

    domain = AnalysisDomain.NATIVE_GATES
    requires_device = True

    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> bool:
        assert device is not None
        return device.gates_native(circuit)


class MappingAnalysis(AnalysisPass):
    """Per-device check: do all two-qubit gates respect the coupling map?"""

    domain = AnalysisDomain.MAPPING
    requires_device = True

    def analyse(self, circuit: QuantumCircuit, device: Device | None = None) -> bool:
        assert device is not None
        return device.mapping_satisfied(circuit)


#: singleton analysis instances used by the convenience accessors
_DAG = DagAnalysis()
_FEATURES = FeatureVectorAnalysis()
_ACTIVE = ActiveQubitsAnalysis()
_NATIVE = NativeGatesAnalysis()
_MAPPING = MappingAnalysis()


class AnalysisCache:
    """Thread-safe LRU cache of :class:`PropertySet`\\ s keyed by circuit fingerprint.

    One instance is shared across an entire pipeline run or RL training run;
    circuits that hash to the same fingerprint (same structure) share their
    analysis results regardless of object identity.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, PropertySet] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.reward_hits = 0
        self.reward_evaluations = 0

    # -- core API -------------------------------------------------------------------

    def properties(self, circuit: QuantumCircuit) -> PropertySet:
        """The property set for ``circuit``'s current state (created on demand)."""
        fingerprint = circuit.fingerprint()
        with self._lock:
            props = self._entries.get(fingerprint)
            if props is None:
                props = PropertySet()
                self._entries[fingerprint] = props
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            else:
                self._entries.move_to_end(fingerprint)
            return props

    def get(
        self,
        circuit: QuantumCircuit,
        analysis: AnalysisPass,
        device: Device | None = None,
    ) -> Any:
        """Run ``analysis`` on ``circuit`` — or return the cached result."""
        props = self.properties(circuit)
        key = analysis.key(device)
        with self._lock:
            if key in props:
                self.hits += 1
                return props[key]
            self.misses += 1
        value = analysis.analyse(circuit, device)
        with self._lock:
            props[key] = value
        return value

    def carry_forward(
        self,
        source: QuantumCircuit,
        target: QuantumCircuit,
        preserves: frozenset[str],
    ) -> None:
        """Migrate preserved analysis results from ``source`` to ``target``.

        Called after a transformation pass turned ``source`` into ``target``;
        every cached entry whose domain the pass declared in ``preserves`` is
        copied to the target's property set.
        """
        if not preserves:
            return
        source_fp = source.fingerprint()
        target_fp = target.fingerprint()
        if source_fp == target_fp:
            return  # same structure, same property set — nothing to migrate
        with self._lock:
            props = self._entries.get(source_fp)
            if not props:
                return
            # Snapshot under the lock: another thread's get() may insert into
            # the same property set while we iterate.
            carried = {
                key: props[key]
                for domain in preserves
                for key in props.domain_keys(domain)
            }
        if not carried:
            return
        target_props = self.properties(target)
        with self._lock:
            for key, value in carried.items():
                target_props.setdefault(key, value)

    # -- convenience accessors ---------------------------------------------------------

    def dag(self, circuit: QuantumCircuit) -> DAGCircuit:
        return self.get(circuit, _DAG)

    def feature_vector(self, circuit: QuantumCircuit) -> np.ndarray:
        # Return a copy: observations flow into RL buffers that must not alias
        # the cached array.
        return self.get(circuit, _FEATURES).copy()

    def warm_features(self, circuits: "Iterable[QuantumCircuit]") -> int:
        """Bulk-load feature vectors for ``circuits`` through the batched kernel.

        One :func:`~repro.features.extraction.feature_vectors_batch` sweep
        amortises the per-circuit instruction-table pass; the rows land in the
        same property-set slots :meth:`feature_vector` reads, so fleet members
        (and anything else sharing this cache) get warm hits instead of N cold
        extractions.  Circuits whose features are already cached are skipped.
        Returns the number of vectors computed.
        """
        from ..features.extraction import feature_vectors_batch

        key = _FEATURES.key(None)
        cold = []
        for circuit in circuits:
            props = self.properties(circuit)
            with self._lock:
                if key in props:
                    continue
            cold.append((circuit, props))
        if not cold:
            return 0
        vectors = feature_vectors_batch([circuit for circuit, _props in cold])
        with self._lock:
            for (_circuit, props), vector in zip(cold, vectors):
                props.setdefault(key, vector)
        return len(cold)

    def active_qubits(self, circuit: QuantumCircuit) -> frozenset[int]:
        return self.get(circuit, _ACTIVE)

    def gates_native(self, circuit: QuantumCircuit, device: Device) -> bool:
        return self.get(circuit, _NATIVE, device)

    def mapping_satisfied(self, circuit: QuantumCircuit, device: Device) -> bool:
        return self.get(circuit, _MAPPING, device)

    def is_executable(self, circuit: QuantumCircuit, device: Device) -> bool:
        return self.gates_native(circuit, device) and self.mapping_satisfied(circuit, device)

    def reward(
        self,
        circuit: QuantumCircuit,
        device: Device,
        reward_name: str,
        reward_fn: "Callable[[QuantumCircuit, Device], float]",
    ) -> float:
        """Evaluate ``reward_fn`` on a terminal state — or return the cached value.

        Keyed by circuit fingerprint (via the property set) plus reward
        function and device, so episodes terminating in the same circuit on
        the same device pay for the reward computation once.  Reward entries
        use their own namespace (``reward:<name>@<device>``), which no pass
        declares in ``preserves`` — they are never carried forward across
        transformations.
        """
        props = self.properties(circuit)
        key = f"reward:{reward_name}@{device.name}"
        with self._lock:
            if key in props:
                self.reward_hits += 1
                return props[key]
        value = float(reward_fn(circuit, device))
        with self._lock:
            self.reward_evaluations += 1
            props[key] = value
        return value

    # -- bookkeeping -------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
                "reward_hits": self.reward_hits,
                "reward_evaluations": self.reward_evaluations,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0
            self.reward_hits = self.reward_evaluations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CacheStore(ABC):
    """Where a flat cache keeps its entries — the pluggable storage backend.

    :class:`LruCache` (and therefore ``TransformCache`` and the batch
    service's ``CompilationCache``) delegates every storage operation to a
    store.  The default :class:`DictStore` is a private in-process dict; the
    compile-service subsystem provides a server-backed implementation
    (:class:`repro.service.SharedCacheStore`) so worker processes and
    sibling services can share one set of entries across process
    boundaries.  Stores own the eviction policy *and* the hit/miss/eviction
    counters, so shared stores aggregate statistics across every client.
    """

    @abstractmethod
    def get(self, key) -> Any:
        """The cached value for ``key``, or ``None`` (counted as hit/miss)."""

    @abstractmethod
    def put(self, key, value, cost: float | None = None) -> None:
        """Insert ``key`` → ``value``, evicting per the store's policy.

        ``cost`` is the observed price of recomputing the value (compile
        wall-time in seconds for compilation results).  Stores whose eviction
        policy is cost-blind (:class:`DictStore`) ignore it;
        :class:`CostAwareStore` uses it to evict cheap-to-recompute entries
        first.
        """

    @abstractmethod
    def stats(self) -> dict[str, float]:
        """Counters: ``entries`` / ``hits`` / ``misses`` / ``evictions`` / ``hit_rate``."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry and reset the counters."""

    def __len__(self) -> int:
        return int(self.stats()["entries"])


class DictStore(CacheStore):
    """Thread-safe in-process LRU store with hit/miss/eviction counters."""

    def __init__(self, maxsize: int = 2048):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key, value, cost: float | None = None) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CostAwareStore(CacheStore):
    """Thread-safe store that evicts cheap-to-recompute entries first.

    Pure LRU treats a 2-second ``best-of`` compilation and a 2-millisecond
    ``qiskit-o0`` one as equally worth keeping; under capacity pressure that
    throws away exactly the entries that hurt most to lose.  This store keeps,
    per entry, the observed cost of recomputing it (compile wall-time in
    seconds, taken from ``cost=`` or inferred from the value's ``wall_time``
    attribute) and a last-touched tick, and scores residents as::

        score = cost / (1 + age_in_accesses)

    On overflow the lowest-scoring entry is evicted — a cheap stale entry goes
    long before an expensive one — with one guarantee on top of the scoring:
    the most recently touched entry of the highest cost tier is never evicted,
    so the most expensive resident always survives an eviction no matter how
    the scores fall.  (Only that one representative is protected: stale
    entries that merely *tie* the maximum cost age out like everything else.)

    Drop-in for :class:`DictStore` anywhere a :class:`CacheStore` is accepted:
    ``CompilationCache(store=CostAwareStore(...))``,
    ``TransformCache(store=...)``, or server-side behind a
    :class:`repro.service.CacheServer` (``policy="cost"``).
    """

    def __init__(self, maxsize: int = 2048, *, default_cost: float = 1.0):
        self.maxsize = maxsize
        self.default_cost = default_cost
        self._lock = threading.Lock()
        #: key -> [value, cost, last_touched_tick]
        self._entries: dict[Any, list] = {}
        self._tick = 0
        # The max-cost tier is tracked incrementally so an eviction is a
        # single scan and puts below capacity stay O(1).  Max-cost entries
        # only leave through overwrites, the all-tie fallback, or clear() —
        # never through scored eviction — which keeps the counters exact.
        self._max_cost = 0.0
        self._max_count = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cost_evicted = 0.0

    def _score(self, entry: list) -> float:
        return entry[1] / (1 + (self._tick - entry[2]))

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            self._tick += 1
            if entry is None:
                self.misses += 1
                return None
            entry[2] = self._tick
            self.hits += 1
            return entry[0]

    def put(self, key, value, cost: float | None = None) -> None:
        if cost is None:
            cost = getattr(value, "wall_time", None) or self.default_cost
        cost = float(cost)
        with self._lock:
            self._tick += 1
            previous = self._entries.pop(key, None)
            if previous is not None:
                # Settle the old entry's tier accounting with the entry fully
                # removed, so a recompute never sees old and new at once.
                self._drop_from_max_tier(previous[1])
            self._entries[key] = [value, cost, self._tick]
            if cost > self._max_cost:
                self._max_cost = cost
                self._max_count = 1
            elif cost == self._max_cost:
                self._max_count += 1
            while len(self._entries) > self.maxsize:
                self._evict_one()

    def _drop_from_max_tier(self, cost: float) -> None:
        """Account for a max-tier entry leaving (overwrite or tie-fallback evict)."""
        if cost == self._max_cost:
            self._max_count -= 1
            if self._max_count == 0:
                self._max_cost = max(
                    (entry[1] for entry in self._entries.values()), default=0.0
                )
                self._max_count = sum(
                    1 for entry in self._entries.values() if entry[1] == self._max_cost
                )

    def _evict_one(self) -> None:
        """Evict the lowest-scoring entry, sparing the most expensive resident.

        Exactly one max-cost entry — the most recently touched — is off
        limits, so "the most expensive entry" always survives an eviction.
        Protecting only one representative (not the whole tie tier) matters:
        stale expensive ties age out normally, and a cheap newcomer facing a
        store full of expensive entries is only rejected until their scores
        decay below its own, never permanently.
        """
        protected = None
        protected_tick = -1
        for key, entry in self._entries.items():
            if entry[1] == self._max_cost and entry[2] > protected_tick:
                protected, protected_tick = key, entry[2]
        candidates = [key for key in self._entries if key != protected]
        if candidates:
            victim = min(candidates, key=lambda key: self._score(self._entries[key]))
        else:
            # The protected entry is the only resident (maxsize 0, or an
            # overflow of a 0-capacity store): there is nothing else to give.
            victim = protected
        entry = self._entries.pop(victim)
        self._drop_from_max_tier(entry[1])
        self.cost_evicted += entry[1]
        self.evictions += 1

    def snapshot(self) -> dict[Any, tuple[float, int]]:
        """``{key: (cost, last_touched_tick)}`` for the current residents.

        Introspection for monitoring and the property-test suite; does not
        touch recency or the hit/miss counters.
        """
        with self._lock:
            return {key: (entry[1], entry[2]) for key, entry in self._entries.items()}

    def stats(self) -> dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
                "cost_evicted": self.cost_evicted,
                "resident_cost": sum(entry[1] for entry in self._entries.values()),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tick = 0
            self._max_cost = 0.0
            self._max_count = 0
            self.hits = self.misses = self.evictions = 0
            self.cost_evicted = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class LruCache:
    """Key/value cache with hit/miss/eviction bookkeeping and pluggable storage.

    The shared base of every flat result cache in the framework
    (:class:`TransformCache` here, ``CompilationCache`` in the batch
    service); :class:`AnalysisCache` keeps its own structure because its
    entries are per-circuit property *sets*, not single values.

    ``store`` selects where entries live: the default is a private
    thread-safe :class:`DictStore`; pass a
    :class:`repro.service.SharedCacheStore` to share one entry set (and one
    set of counters) with other processes through a cache server.
    """

    def __init__(self, maxsize: int = 2048, *, store: CacheStore | None = None):
        self.maxsize = maxsize
        self.store = store if store is not None else DictStore(maxsize)

    def get(self, key):
        return self.store.get(key)

    def put(self, key, value, cost: float | None = None) -> None:
        self.store.put(key, value, cost)

    @property
    def hits(self) -> int:
        return int(self.store.stats()["hits"])

    @property
    def misses(self) -> int:
        return int(self.store.stats()["misses"])

    @property
    def evictions(self) -> int:
        return int(self.store.stats()["evictions"])

    @property
    def hit_rate(self) -> float:
        return float(self.store.stats()["hit_rate"])

    def stats(self) -> dict[str, float]:
        return self.store.stats()

    def clear(self) -> None:
        self.store.clear()

    def __len__(self) -> int:
        return len(self.store)


class TransformCache(LruCache):
    """Thread-safe LRU memo of pass applications.

    Keys are ``(pass name, input circuit fingerprint, device name, seed)``
    — everything a deterministic pass's output depends on.  Values are the
    output circuits, returned *by object*: circuits are immutable by the
    pass contract (enforced by the registry-wide no-input-mutation property
    test), so sharing the instance also shares its cached fingerprint and
    analysis entries.

    Sound only where the :class:`~repro.passes.base.PassContext` is built per
    application and discarded afterwards (the RL environment's step loop):
    replaying a memoised result skips any context mutation the original run
    performed.  The :class:`~repro.pipeline.manager.PassManager`, which
    threads one context through a whole schedule, must not use it.
    """

    def __init__(self, maxsize: int = 4096, *, store: CacheStore | None = None):
        super().__init__(maxsize, store=store)

    @staticmethod
    def key(
        pass_name: str,
        circuit: QuantumCircuit,
        device: Device | None,
        seed: int,
    ) -> tuple:
        return (
            pass_name,
            circuit.fingerprint(),
            device.name if device is not None else None,
            seed,
        )
