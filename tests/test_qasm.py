"""Unit tests for OpenQASM 2 import/export."""

from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest

from repro.circuit import QasmError, QuantumCircuit, from_qasm, random_circuit, to_qasm
from repro.circuit.qasm import _eval_param, _format_param, _parse_param
from repro.linalg import allclose_up_to_global_phase, circuit_unitary


class TestExport:
    def test_header_and_registers(self, bell_circuit):
        text = to_qasm(bell_circuit)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text
        assert "creg c[2];" in text

    def test_gate_lines(self, bell_circuit):
        text = to_qasm(bell_circuit)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text

    def test_parameter_formatting_pi(self):
        circuit = QuantumCircuit(1)
        circuit.rz(math.pi / 2, 0)
        assert "pi*1/2" in to_qasm(circuit)

    def test_measure_line(self):
        circuit = QuantumCircuit(2)
        circuit.measure(0, 1)
        assert "measure q[0] -> c[1];" in to_qasm(circuit)

    def test_barrier_line(self):
        circuit = QuantumCircuit(2)
        circuit.barrier(0, 1)
        assert "barrier q[0],q[1];" in to_qasm(circuit)


class TestImport:
    def test_simple_parse(self):
        text = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        cx q[0],q[1];
        measure q[0] -> c[0];
        """
        circuit = from_qasm(text)
        assert circuit.num_qubits == 2
        assert [i.name for i in circuit] == ["h", "cx", "measure"]

    def test_parameter_expression(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz(pi/4) q[0];\n')
        assert circuit[0].params[0] == pytest.approx(math.pi / 4)

    def test_u1_maps_to_p(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nu1(0.5) q[0];\n')
        assert circuit[0].name == "p"

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError, match="unsupported gate"):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmystery q[0];\n')

    def test_bad_parameter_expression_rejected(self):
        with pytest.raises(ValueError):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz(__import__) q[0];\n')


class TestMalformedInput:
    """Trust-boundary hardening: every bad input is a QasmError, never a
    KeyError/IndexError leaking parser internals."""

    HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'

    def test_qasm_error_is_value_error(self):
        assert issubclass(QasmError, ValueError)

    def test_undeclared_quantum_register(self):
        with pytest.raises(QasmError, match="undeclared quantum register 'r'"):
            from_qasm(self.HEADER + "h r[0];\n")

    def test_undeclared_register_in_measurement(self):
        with pytest.raises(QasmError, match="undeclared"):
            from_qasm(self.HEADER + "measure r[0] -> c[0];\n")
        with pytest.raises(QasmError, match="undeclared classical register"):
            from_qasm(self.HEADER + "measure q[0] -> d[0];\n")

    def test_out_of_range_qubit_index(self):
        with pytest.raises(QasmError, match=r"index 2 out of range .* q\[2\]"):
            from_qasm(self.HEADER + "h q[2];\n")

    def test_out_of_range_clbit_index(self):
        with pytest.raises(QasmError, match="out of range"):
            from_qasm(self.HEADER + "measure q[0] -> c[5];\n")

    def test_duplicate_register_name(self):
        with pytest.raises(QasmError, match="duplicate register name 'q'"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\ncreg c[2];\n')

    def test_creg_shadowing_qreg_is_duplicate(self):
        with pytest.raises(QasmError, match="duplicate register name 'q'"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\ncreg q[2];\n')

    def test_register_declared_after_statement(self):
        with pytest.raises(QasmError, match="declared after first statement"):
            from_qasm('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nqreg r[1];\n')

    def test_gate_broadcast_rejected(self):
        with pytest.raises(QasmError, match="broadcast"):
            from_qasm(self.HEADER + "h q;\n")

    def test_gate_without_operands(self):
        with pytest.raises(QasmError, match="no operands"):
            from_qasm(self.HEADER + "h ;\n")

    def test_garbage_line(self):
        with pytest.raises(QasmError, match="cannot parse"):
            from_qasm(self.HEADER + "!!! nonsense;\n")

    def test_non_string_input(self):
        with pytest.raises(QasmError, match="must be a string"):
            from_qasm(12345)

    def test_bad_parameter_is_qasm_error(self):
        with pytest.raises(QasmError, match="parameter expression"):
            from_qasm(self.HEADER + "rz(1/0) q[0];\n")

    def test_two_registers_get_offsets(self):
        circuit = from_qasm(
            'OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncreg c[4];\ncx a[1],b[0];\n'
        )
        assert circuit.num_qubits == 4
        assert circuit[0].qubits == (1, 2)

    def test_barrier_bare_register_expands(self):
        circuit = from_qasm('OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nbarrier q;\n')
        assert circuit[0].qubits == (0, 1, 2)

    def test_barrier_undeclared_register(self):
        with pytest.raises(QasmError, match="undeclared"):
            from_qasm('OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nbarrier r;\n')


def _format_reference(value: float) -> str:
    """The angle formatter before the one-``round`` lookup: a scan of every multiple."""
    for denom in (1, 2, 3, 4, 6, 8, 16):
        for num in range(-16 * denom, 16 * denom + 1):
            if num == 0:
                continue
            if abs(value - num * math.pi / denom) < 1e-12:
                return f"pi*{num}/{denom}" if denom != 1 else f"pi*{num}"
    if abs(value) < 1e-15:
        return "0"
    return repr(float(value))


class TestFormatParam:
    def test_matches_the_scan_on_a_corpus(self):
        corpus = []
        for denom in (1, 2, 3, 4, 6, 8, 16):
            for num in range(-17 * denom, 17 * denom + 1):
                exact = num * math.pi / denom
                corpus += [
                    exact, exact + 1e-13, exact - 1e-13, exact + 9.9e-13, exact - 1.1e-12,
                    math.nextafter(exact, math.inf), math.nextafter(exact, -math.inf),
                    num * (math.pi / denom), num / denom * math.pi,
                ]
        rng = np.random.default_rng(11)
        corpus += list(rng.uniform(-60, 60, 2000))
        corpus += list(rng.uniform(-1, 1, 200) * 10.0 ** rng.integers(-300, 300, 200))
        corpus += [
            0.0, -0.0, 1e-16, -1e-16, 1e-15, 9e-16, math.inf, -math.inf, math.nan,
            1e300, -1e300, 1.7e308, 5e-324, 16 * math.pi + 1e-12, 51.0, -51.0,
        ]
        corpus += [np.float64(value) for value in corpus[:500]]
        for value in corpus:
            assert _format_param(value) == _format_reference(value), repr(value)


def _eval_reference(expr: str) -> float:
    """The parameter evaluator before the recursive-descent parser: ``eval``."""
    text = expr.strip().replace("pi", repr(math.pi))
    assert re.fullmatch(r"[0-9eE\.\+\-\*/\(\) ]+", text)
    return float(eval(text, {"__builtins__": {}}, {}))


class TestParameterEvaluator:
    HEADER = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n'

    @pytest.mark.parametrize("expr", ["2**3", "9**9**9", "pi**2"])
    def test_power_is_rejected_fast(self, expr):
        start = time.perf_counter()
        with pytest.raises(QasmError, match="parameter expression"):
            from_qasm(self.HEADER + f"rz({expr}) q[0];\n")
        assert time.perf_counter() - start < 1.0

    def test_matches_eval_bit_for_bit(self):
        corpus = [
            _format_param(num * math.pi / denom)
            for denom in (1, 2, 3, 4, 6, 8, 16)
            for num in range(-16 * denom, 16 * denom + 1)
            if num
        ]
        rng = np.random.default_rng(7)
        for value in rng.uniform(-10, 10, 200) * 10.0 ** rng.integers(-20, 20, 200):
            corpus += [_format_param(value), repr(float(value)), "+" + repr(float(value))]
        corpus += [
            "0", "1e-05", "-2.5E+3", ".5", "5.", "1-2-3", "8/2/2", "2*-3",
            "--3", "-+-pi*3/4", "-pi/2", " pi * 3 / 4 ", "(pi+1)*2", "-(pi)/2",
        ]
        for expr in corpus:
            assert _eval_param(expr).hex() == _eval_reference(expr).hex(), expr

        # The shortcut for to_qasm's two forms gives the parser's value or error.
        def outcome(fn, expr):
            try:
                return fn(expr).hex()
            except QasmError as exc:
                return f"QasmError: {exc}"

        corpus += [
            f"pi*{sign}{num}/{denom}"
            for sign in ("", "-")
            for num in (0, 1, 3, 7, 255, 10**400)
            for denom in (1, 2, 16, 0, "00", 10**400)
        ]
        corpus += [f"pi*{num}" for num in (0, -0, 5, -5, -256, 10**400)]
        corpus += [
            "inf", "-inf", "nan", "1_0", "--1", "-1_0", "+1", "-0", "-0.0", "1e400",
            "-1e-400", "-.5", "-5.", "1e", "pi*", "pi*1/", "pi*+3", "pi*3.0/4", "pi *3",
            "pi*1/2/2", "-pi*1/2",
        ]
        corpus += [repr(float(value)) for value in np.random.default_rng(3).normal(0, 1e3, 50)]
        for expr in corpus:
            assert outcome(_eval_param, expr) == outcome(_parse_param, expr.strip()), expr


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuit_round_trip_unitary(self, seed):
        circuit = random_circuit(3, 5, seed=seed)
        rebuilt = from_qasm(to_qasm(circuit))
        assert allclose_up_to_global_phase(circuit_unitary(rebuilt), circuit_unitary(circuit))

    def test_round_trip_preserves_counts(self, ghz5):
        ghz5.measure_all()
        rebuilt = from_qasm(to_qasm(ghz5))
        assert rebuilt.count_ops() == ghz5.count_ops()
