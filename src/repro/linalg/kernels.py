"""Batched numeric kernels for the compile hot path.

The scalar pipeline builds one 2x2 numpy array per gate, multiplies them one
``@`` at a time, and verifies every candidate decomposition with its own
``np.allclose`` — thousands of tiny-array allocations per pass invocation.
These kernels do the same arithmetic over *stacks*: all gate matrices of a
circuit land in one ``(N, 2, 2)`` array, all run products come out of a
handful of batched ``np.matmul`` calls, and all candidate verifications are
one vectorised reduction.

Bit-exactness contract
----------------------
``Optimize1qGatesDecomposition`` output is pinned byte-for-byte by the golden
preset traces, so every batched step here must reproduce the scalar float
semantics exactly, not merely closely.  What this file relies on (verified on
this numpy build):

* ``np.cos`` / ``np.sin`` / ``np.exp`` (complex), ``np.linalg.det`` on
  ``(N, 2, 2)`` stacks, batched ``np.matmul`` and elementwise complex
  multiply/divide are bit-identical to their per-element scalar equivalents.
* ``np.arctan2`` and ``np.abs`` (complex) are SIMD-vectorised and differ from
  ``math.atan2`` / scalar ``abs`` by one ulp on a few percent of inputs — so
  phases, magnitudes and ``atan2`` calls that feed *emitted gate parameters*
  go through small per-run Python loops over the exact scalar functions.
  Runs are far fewer than gates, so these loops are off the critical path.
* Identity padding is exact: ``I @ G`` and ``G @ I`` reproduce ``G``'s
  entries bit-for-bit, which lets variable-length runs share one batched
  product without affecting the result.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from ..circuit.gates import _INTERNED_MATRICES, Gate, gate_matrix
from ..obs import timed
from .decompositions import (
    OneQubitDecomposition,
    _drop_trivial,
    synthesize_1q,
    u3_angles,
)

__all__ = [
    "gate_matrices_batch",
    "run_products_batch",
    "allclose_up_to_global_phase_batch",
    "u3_angles_batch",
    "synthesize_1q_batch",
]

_ATOL = 1e-9  # matches decompositions._ATOL
_RTOL = 1e-5  # np.allclose default rtol, replicated by the batched checks


# ---------------------------------------------------------------------------
# Batched gate-matrix construction
# ---------------------------------------------------------------------------


def gate_matrices_batch(gates: Sequence[Gate]) -> np.ndarray:
    """Evaluate all single-qubit gate matrices into one ``(N, 2, 2)`` array.

    Parameterless gates come from the interned matrix table; the parametrised
    families (``rz``/``p``/``u1``, ``rx``, ``ry``, ``u``/``u3``, ``u2``) are
    built with vectorised trig over grouped parameter arrays.  Every entry is
    bit-identical to ``gate_matrix(gate)`` for the same gate.
    """
    n = len(gates)
    out = np.empty((n, 2, 2), dtype=complex)
    by_name: dict[str, list[int]] = {}
    for i, gate in enumerate(gates):
        by_name.setdefault(gate.name, []).append(i)
    for name, indices in by_name.items():
        interned = _INTERNED_MATRICES.get(name)
        if interned is not None:
            if interned.shape != (2, 2):
                raise ValueError(f"gate {name!r} is not single-qubit")
            out[indices] = interned
            continue
        idx = np.asarray(indices)
        if name in ("rz",):
            phi = np.array([gates[i].params[0] for i in indices])
            out[idx, 0, 0] = np.exp(-1j * phi / 2)
            out[idx, 0, 1] = 0.0
            out[idx, 1, 0] = 0.0
            out[idx, 1, 1] = np.exp(1j * phi / 2)
        elif name in ("p", "u1"):
            lam = np.array([gates[i].params[0] for i in indices])
            out[idx, 0, 0] = 1.0
            out[idx, 0, 1] = 0.0
            out[idx, 1, 0] = 0.0
            out[idx, 1, 1] = np.exp(1j * lam)
        elif name == "rx":
            theta = np.array([gates[i].params[0] for i in indices])
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            out[idx, 0, 0] = c
            out[idx, 0, 1] = -1j * s
            out[idx, 1, 0] = -1j * s
            out[idx, 1, 1] = c
        elif name == "ry":
            theta = np.array([gates[i].params[0] for i in indices])
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            out[idx, 0, 0] = c
            out[idx, 0, 1] = -s
            out[idx, 1, 0] = s
            out[idx, 1, 1] = c
        elif name in ("u", "u3", "u2"):
            if name == "u2":
                phi = np.array([gates[i].params[0] for i in indices])
                lam = np.array([gates[i].params[1] for i in indices])
                theta = np.full(len(indices), math.pi / 2)
            else:
                theta = np.array([gates[i].params[0] for i in indices])
                phi = np.array([gates[i].params[1] for i in indices])
                lam = np.array([gates[i].params[2] for i in indices])
            out[idx] = _u_matrices(theta, phi, lam)
        else:
            # Unknown parametrised family: fall back to the scalar constructor.
            for i in indices:
                mat = gate_matrix(gates[i])
                if mat.shape != (2, 2):
                    raise ValueError(f"gate {name!r} is not single-qubit")
                out[i] = mat
    return out


def _u_matrices(theta: np.ndarray, phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Stacked U3 matrices, bit-identical to ``_mat_u`` per element."""
    n = len(theta)
    out = np.empty((n, 2, 2), dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out[:, 0, 0] = c
    out[:, 0, 1] = -np.exp(1j * lam) * s
    out[:, 1, 0] = np.exp(1j * phi) * s
    out[:, 1, 1] = np.exp(1j * (phi + lam)) * c
    return out


# ---------------------------------------------------------------------------
# Batched products and global-phase comparison
# ---------------------------------------------------------------------------


def run_products_batch(matrices: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Per-run products ``G_{L-1} ... G_1 G_0`` over a flat matrix stack.

    ``matrices`` holds the concatenated gate matrices of all runs (run ``r``
    occupies ``matrices[starts[r]:starts[r]+lengths[r]]`` in application
    order); the result is one ``(num_runs, 2, 2)`` stack.  Runs are sorted by
    length so each batched ``np.matmul`` step only touches the prefix of runs
    that still have gates left — total work is ``sum(lengths)`` matmuls, the
    same as the sequential loop, with none of its per-gate dispatch.
    """
    lengths = np.asarray(lengths, dtype=int)
    n = len(lengths)
    if n == 0:
        return np.empty((0, 2, 2), dtype=complex)
    starts = np.zeros(n, dtype=int)
    np.cumsum(lengths[:-1], out=starts[1:])
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    sorted_starts = starts[order]
    total = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    max_len = int(sorted_lengths[0])
    neg_lengths = -sorted_lengths
    for step in range(max_len):
        k = int(np.searchsorted(neg_lengths, -step, side="left"))
        factors = matrices[sorted_starts[:k] + step]
        np.matmul(factors, total[:k], out=total[:k])
    out = np.empty_like(total)
    out[order] = total
    return out


def allclose_up_to_global_phase_batch(
    a: np.ndarray, b: np.ndarray, tol: float = 1e-7
) -> np.ndarray:
    """Vectorised ``allclose_up_to_global_phase`` over ``(N, 2, 2)`` stacks.

    ``b`` may be a single ``(2, 2)`` matrix, broadcast against every ``a``.
    Replicates the scalar check exactly: phase fit at ``argmax |b|``,
    unit-modulus gate on the fitted ratio, then ``np.allclose`` semantics
    (``|a - z b| <= atol + rtol |z b|`` with the default ``rtol=1e-5``).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if b.ndim == 2:
        b = np.broadcast_to(b, a.shape)
    af = a.reshape(len(a), -1)
    bf = b.reshape(len(b), -1)
    rows = np.arange(len(af))
    idx = np.abs(bf).argmax(axis=1)
    bmax = bf[rows, idx]
    degenerate = np.abs(bmax) < 1e-12
    safe_bmax = np.where(degenerate, 1.0, bmax)
    z = af[rows, idx] / safe_bmax
    zb = z[:, None] * bf
    close = np.all(np.abs(af - zb) <= tol + _RTOL * np.abs(zb), axis=1)
    close &= np.abs(np.abs(z) - 1.0) <= 1e-5
    plain = np.all(np.abs(af - bf) <= tol + _RTOL * np.abs(bf), axis=1)
    return np.where(degenerate, plain, close)


def _phases_between(target: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Batched ``_phase_between``: phase of ``target/product`` at argmax |product|."""
    tf = target.reshape(len(target), -1)
    pf = product.reshape(len(product), -1)
    rows = np.arange(len(pf))
    idx = np.abs(pf).argmax(axis=1)
    ratios = tf[rows, idx] / pf[rows, idx]
    # cmath.phase == atan2(imag, real); looped to match libm bit-for-bit.
    return np.array([math.atan2(r.imag, r.real) for r in ratios])


# ---------------------------------------------------------------------------
# Batched Euler decomposition
# ---------------------------------------------------------------------------


def u3_angles_batch(
    matrices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``u3_angles``: ``(theta, phi, lam, phase)`` arrays over a stack.

    The determinant, SU(2) rescale, and the final verification run as stacked
    array ops; the ``atan2``/``abs`` extractions that produce emitted angles
    run through the scalar libm functions per run (see module docstring).
    Items failing the batched verification are recomputed with the scalar
    ``u3_angles`` so the degenerate fallback path matches exactly.
    """
    m = np.ascontiguousarray(matrices, dtype=complex)
    n = len(m)
    dets = np.linalg.det(m)
    phase = np.empty(n)
    for i in range(n):
        d = dets[i]
        phase[i] = math.atan2(d.imag, d.real) / 2.0
    su = m * np.exp(-1j * phase)[:, None, None]

    theta = np.empty(n)
    phi = np.empty(n)
    lam = np.empty(n)
    su00, su10, su11 = su[:, 0, 0], su[:, 1, 0], su[:, 1, 1]
    for i in range(n):
        a00, a10 = abs(su00[i]), abs(su10[i])
        theta[i] = 2.0 * math.atan2(a10, a00)
        if a00 < _ATOL:
            phi_plus_lam = 0.0
            phi_minus_lam = 2.0 * cmath.phase(su10[i])
        elif a10 < _ATOL:
            phi_plus_lam = 2.0 * cmath.phase(su11[i])
            phi_minus_lam = 0.0
        else:
            phi_plus_lam = 2.0 * cmath.phase(su11[i])
            phi_minus_lam = 2.0 * cmath.phase(su10[i])
        phi[i] = (phi_plus_lam + phi_minus_lam) / 2.0
        lam[i] = (phi_plus_lam - phi_minus_lam) / 2.0
    total_phase = phase - (phi + lam) / 2.0

    reconstructed = np.exp(1j * total_phase)[:, None, None] * _u_matrices(theta, phi, lam)
    ok = np.all(
        np.abs(reconstructed - m) <= 1e-7 + _RTOL * np.abs(m), axis=(1, 2)
    )
    for i in np.flatnonzero(~ok):
        theta[i], phi[i], lam[i], total_phase[i] = u3_angles(m[i])
    return theta, phi, lam, total_phase


def synthesize_1q_batch(
    matrices: np.ndarray, basis: str = "rz_sx"
) -> list[OneQubitDecomposition]:
    """Batched ``synthesize_1q`` over an ``(N, 2, 2)`` stack of unitaries.

    Returns one :class:`OneQubitDecomposition` per input with gates identical
    to the per-matrix scalar call (global phases can differ by ulps when an
    argmax tie falls on a different element).  Candidate forms are tried in
    the scalar order, each evaluated for all still-unresolved items at once.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim == 2:
        m = m[None]
    n = len(m)
    if n == 0:
        return []
    with timed("kernel.synthesize_1q_batch", items=n):
        return _synthesize_1q_batch(m, basis)


def _synthesize_1q_batch(m: np.ndarray, basis: str) -> list[OneQubitDecomposition]:
    n = len(m)
    theta, phi, lam, phase = u3_angles_batch(m)

    if basis == "u3":
        return [
            OneQubitDecomposition(
                (Gate("u", (theta[i], phi[i], lam[i])),), float(phase[i])
            )
            for i in range(n)
        ]

    if basis == "rz_ry":
        candidate_lists = [
            (
                _drop_trivial([Gate("rz", (phi[i] + lam[i],))]),
                _drop_trivial(
                    [Gate("rz", (lam[i],)), Gate("ry", (theta[i],)), Gate("rz", (phi[i],))]
                ),
            )
            for i in range(n)
        ]
    elif basis in ("rz_sx", "rz_rx"):
        sx_gate = Gate("sx") if basis == "rz_sx" else Gate("rx", (math.pi / 2,))
        half_pi = math.pi / 2
        candidate_lists = [
            (
                _drop_trivial([Gate("rz", (phi[i] + lam[i],))]),
                _drop_trivial(
                    [Gate("rz", (lam[i] - half_pi,)), sx_gate, Gate("rz", (phi[i] + half_pi,))]
                ),
                _drop_trivial(
                    [
                        Gate("rz", (lam[i],)),
                        sx_gate,
                        Gate("rz", (theta[i] + math.pi,)),
                        sx_gate,
                        Gate("rz", (phi[i] + math.pi,)),
                    ]
                ),
            )
            for i in range(n)
        ]
    else:
        raise ValueError(f"unknown single-qubit basis {basis!r}")

    decomps: list[OneQubitDecomposition | None] = [None] * n
    unresolved = list(range(n))
    num_forms = len(candidate_lists[0])
    for form in range(num_forms):
        if not unresolved:
            break
        gate_lists = [candidate_lists[i][form] for i in unresolved]
        flat = [g for gates in gate_lists for g in gates]
        products = run_products_batch(
            gate_matrices_batch(flat), [len(gates) for gates in gate_lists]
        )
        targets = m[unresolved]
        ok = allclose_up_to_global_phase_batch(products, targets)
        accepted = np.flatnonzero(ok)
        if len(accepted):
            phases = _phases_between(targets[accepted], products[accepted])
            for out_pos, pos in enumerate(accepted):
                i = unresolved[pos]
                decomps[i] = OneQubitDecomposition(
                    tuple(gate_lists[pos]), float(phases[out_pos])
                )
        unresolved = [unresolved[pos] for pos in np.flatnonzero(~ok)]
    for i in unresolved:
        # No candidate verified — defer to the scalar path, which raises the
        # same RuntimeError (or recovers if the batch check was borderline).
        decomps[i] = synthesize_1q(m[i], basis)
    return decomps  # type: ignore[return-value]
