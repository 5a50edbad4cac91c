"""Unit tests for OpenQASM 2 import/export."""

from __future__ import annotations

import math
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import QasmError, QuantumCircuit, from_qasm, random_circuit, to_qasm
from repro.circuit import qasm as qasm_module
from repro.circuit.gates import GATE_SPECS, Gate
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


def _memo_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.rz(math.pi / 4, 1)
    circuit.cx(0, 1)
    return circuit


#: every way a circuit's encoded text can change after it was stored
_MUTATIONS = {
    "append": lambda c: c.append("h", [1]),
    "append_instruction": lambda c: c.append_instruction(c[0]),
    "extend": lambda c: c.extend([c[1]]),
    "gate method": lambda c: c.ry(0.5, 0),
    "measure": lambda c: c.measure(0, 1),
    "measure_all": lambda c: c.measure_all(),
    "reset": lambda c: c.reset(1),
    "barrier": lambda c: c.barrier(),
    "rebind same length": lambda c: setattr(c, "_instructions", c._instructions[::-1]),
    "rebind shorter": lambda c: setattr(c, "_instructions", c._instructions[:1]),
    "private list append": lambda c: c._instructions.append(c[0]),
    "num_qubits": lambda c: setattr(c, "num_qubits", 3),
    "num_clbits": lambda c: setattr(c, "num_clbits", 4),
}


class TestEncodeOnce:
    def test_unchanged_circuit_returns_the_stored_text(self, monkeypatch):
        circuit = _memo_circuit()
        text = to_qasm(circuit)
        encodes = []
        real = qasm_module._encode
        monkeypatch.setattr(qasm_module, "_encode", lambda c: encodes.append(c) or real(c))
        assert to_qasm(circuit) is text
        assert to_qasm(circuit) is text
        assert encodes == []

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_every_mutation_gives_a_fresh_encode(self, mutation):
        circuit = _memo_circuit()
        before = to_qasm(circuit)
        _MUTATIONS[mutation](circuit)
        after = to_qasm(circuit)
        assert after == qasm_module._encode(circuit)
        assert after != before

    def test_copy_encodes_its_own_text(self):
        circuit = _memo_circuit()
        text = to_qasm(circuit)
        duplicate = circuit.copy()
        assert to_qasm(duplicate) == text
        duplicate.x(1)
        assert to_qasm(duplicate) == qasm_module._encode(duplicate)
        assert to_qasm(circuit) is text

    def test_decoding_and_pickling_carry_no_stored_text(self):
        circuit = _memo_circuit()
        fresh = pickle.dumps(circuit)
        text = to_qasm(circuit)
        assert from_qasm(text)._qasm is None
        assert pickle.dumps(circuit) == fresh
        assert to_qasm(pickle.loads(fresh)) == text


def _statements(text: str) -> list[str]:
    return [
        line for line in text.splitlines()
        if line and not line.startswith(("OPENQASM", "include", "qreg", "creg"))
    ]


class TestDecodeOnePass:
    def test_one_gate_per_distinct_name_and_parameter_text(self, monkeypatch):
        circuit = random_circuit(4, 16, seed=5, measure=True)
        circuit.barrier()
        for _ in range(3):
            circuit.rz(math.pi / 2, 0)
            circuit.cx(0, 1)
            circuit.measure(2, 2)
        text = to_qasm(circuit)
        statements = _statements(text)
        distinct = {re.match(r"(\w+)(?:\(([^)]*)\))?", line).groups() for line in statements}
        assert len(distinct) < len(statements)

        built = []
        real = Gate.__post_init__
        monkeypatch.setattr(Gate, "__post_init__", lambda gate: built.append(gate) or real(gate))
        decoded = from_qasm(text)
        assert len(built) == len(distinct)
        assert decoded == circuit
        assert [i.clbits for i in decoded] == [i.clbits for i in circuit]

    def test_duplicate_qubits_in_a_barrier_are_a_qasm_error(self):
        with pytest.raises(QasmError, match=r"duplicate qubits .*barrier q\[0\],q\[0\]"):
            from_qasm('OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nbarrier q[0],q[0];\n')


def _reference_from_qasm(text: str) -> QuantumCircuit:
    """The decoder before the one-pass rewrite: one Gate and append per statement.

    One deliberate difference: a barrier with a repeated qubit raised a bare
    ``ValueError`` there and is a ``QasmError`` here, as it is now.
    """
    m = qasm_module
    if not isinstance(text, str):
        raise QasmError(f"QASM input must be a string, got {type(text).__name__}")
    qregs = m._Registers("quantum")
    cregs = m._Registers("classical")
    body: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        if line.startswith(("OPENQASM", "include")):
            continue
        match = m._REG_DECL_RE.match(line)
        if match:
            if body:
                raise QasmError(f"register declared after first statement: {line!r}")
            regs = qregs if match.group("kind") == "qreg" else cregs
            other = cregs if regs is qregs else qregs
            if match.group("name") in other.offsets:
                raise QasmError(f"duplicate register name {match.group('name')!r}: {line!r}")
            regs.declare(match.group("name"), int(match.group("size")), line)
            continue
        if line.startswith(("qreg", "creg")):
            raise QasmError(f"cannot parse register declaration: {line!r}")
        body.append(line)

    circuit = QuantumCircuit(qregs.total, cregs.total or None)
    for line in body:
        if line.startswith("measure"):
            match = m._MEASURE_RE.match(line)
            if not match:
                raise QasmError(f"cannot parse measurement: {line!r}")
            qubit = qregs.resolve(match.group("qreg"), int(match.group("qidx")), line)
            clbit = cregs.resolve(match.group("creg"), int(match.group("cidx")), line)
            circuit.measure(qubit, clbit)
            continue
        match = m._TOKEN_RE.match(line)
        if not match:
            raise QasmError(f"cannot parse QASM line: {line!r}")
        name = match.group("name").lower()
        name = m._FROM_QASM_NAME.get(name, name)
        args = (match.group("args") or "").strip()
        if name == "barrier":
            qubits: list[int] = []
            for arg in args.split(",") if args else []:
                arg = arg.strip()
                arg_match = m._ARG_RE.match(arg)
                if not arg_match:
                    raise QasmError(f"cannot parse operand {arg!r}: {line!r}")
                if arg_match.group("index") is None:
                    qubits.extend(qregs.expand(arg_match.group("name"), line))
                else:
                    qubits.append(
                        qregs.resolve(
                            arg_match.group("name"), int(arg_match.group("index")), line
                        )
                    )
            try:
                circuit.barrier(*qubits)
            except ValueError as exc:
                raise QasmError(f"{exc}: {line!r}") from None
            continue
        params_text = match.group("params")
        params = (
            [m._eval_param(p) for p in params_text.split(",")] if params_text else []
        )
        if name == "cu3":
            name, params = "cu", params + [0.0]
        if name not in GATE_SPECS:
            raise QasmError(f"unsupported gate in QASM input: {name!r}")
        if not args:
            raise QasmError(f"gate {name!r} has no operands: {line!r}")
        qubits = m._parse_gate_args(args, qregs, line)
        try:
            circuit.append(name, qubits, params)
        except ValueError as exc:
            raise QasmError(f"{exc}: {line!r}") from None
    return circuit


def _outcome(decode, text: str):
    """A decoded circuit bit for bit, or the error; any other exception escapes."""
    try:
        circuit = decode(text)
    except QasmError as exc:
        return "QasmError", str(exc)
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        [(i.name, [p.hex() for p in i.params], i.qubits, i.clbits) for i in circuit],
    )


_FUZZ_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_NAMES = sorted(GATE_SPECS) + ["u1", "cu1", "cu3", "iden", "U1", "CX", "mystery"]
_GOOD_PARAMS = ["0", "0.5", "-1e-3", "pi", "pi/2", "-pi*3/4", "--2.5e1", " pi ", "pi*1/8"]
_PARAMS = _GOOD_PARAMS + ["pi*1/0", "1/0", "2**3", "pi*", "1e400-1e400", "", "x", "(pi+1)*2"]
_OPERANDS = [
    "q[0]", "q[1]", "q[2]", "q[3]", "r[0]", "r[1]", "q", "r", "c[0]", "q[9]", " q[1] ",
    "", "q[x]", "q[0", "1q[0]",
]
_UNITARY = sorted(
    name for name, spec in GATE_SPECS.items()
    if spec.matrix_fn is not None and spec.num_qubits <= 4
)


@st.composite
def _good_statement(draw) -> str:
    """A statement that decodes on the registers ``q[4]`` and ``c[4]``."""
    kind = draw(st.sampled_from(["gate", "gate", "gate", "measure", "barrier"]))
    if kind == "measure":
        return f"measure q[{draw(st.integers(0, 3))}] -> c[{draw(st.integers(0, 3))}];"
    if kind == "barrier":
        qubits = draw(st.lists(st.integers(0, 3), max_size=4, unique=True))
        return "barrier " + ",".join(f"q[{q}]" for q in qubits) + ";"
    spec = GATE_SPECS[draw(st.sampled_from(_UNITARY))]
    qubits = draw(st.permutations(range(4)))[: spec.num_qubits]
    params = [draw(st.sampled_from(_GOOD_PARAMS)) for _ in range(spec.num_params)]
    params = "(" + ",".join(params) + ")" if params else ""
    return f"{spec.name}{params} " + ",".join(f"q[{q}]" for q in qubits) + ";"


@st.composite
def _any_statement(draw) -> str:
    """A statement built from parts that may not fit together."""
    operands = st.lists(st.sampled_from(_OPERANDS), max_size=3).map(",".join)
    kind = draw(st.sampled_from(["gate", "gate", "measure", "barrier", "other"]))
    if kind == "gate":
        params = draw(st.none() | st.lists(st.sampled_from(_PARAMS), max_size=4))
        params = "" if params is None else "(" + ",".join(params) + ")"
        return f"{draw(st.sampled_from(_NAMES))}{params} {draw(operands)};"
    if kind == "measure":
        source, target = draw(st.sampled_from(_OPERANDS)), draw(st.sampled_from(_OPERANDS))
        return f"measure {source} -> {target};"
    if kind == "barrier":
        return f"barrier {draw(operands)};"
    return draw(st.sampled_from(
        ["", "// comment", "qreg z[1];", "creg q[1];", "!!;", "h q[0]", "measure q;"]
    ))


@st.composite
def _qasm_texts(draw) -> str:
    """Declarations and statements, mostly well formed, some not."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if draw(st.integers(0, 4)):
        lines += ["qreg q[4];", "creg c[4];"]
    else:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["qreg", "creg"]))
            name = draw(st.sampled_from(["q", "r", "c", "d"]))
            lines.append(f"{kind} {name}[{draw(st.integers(0, 4))}];")
    body = []
    for _ in range(draw(st.integers(0, 16))):
        odd = draw(st.integers(0, 24)) == 0
        body.append(draw(_any_statement() if odd else _good_statement()))
    # Repeat statements now and then, so shared gates and operands are exercised.
    if body and draw(st.booleans()):
        body += draw(st.lists(st.sampled_from(body), max_size=6))
    return "\n".join(lines + body) + "\n"


@st.composite
def _mutated_texts(draw) -> str:
    """A valid encoding of a random circuit with a few characters or statements changed."""
    circuit = random_circuit(
        draw(st.integers(1, 4)), draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)),
        measure=draw(st.booleans()),
    )
    lines = to_qasm(circuit).splitlines(keepends=True)
    header, body = "".join(lines[:4]), "".join(lines[4:])
    for _ in range(draw(st.integers(1, 2))):
        position = draw(st.integers(0, len(body)))
        action = draw(st.sampled_from(["delete", "insert", "replace", "repeat statement"]))
        if action == "repeat statement":
            lines = body.splitlines(keepends=True) or ["h q[0];\n"]
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
            body = "".join(lines)
            continue
        char = draw(st.sampled_from(list("q[]();,->0123456789 pi*/+-.\nxc")))
        end = position + (action != "insert")
        body = body[:position] + ("" if action == "delete" else char) + body[end:]
    return header + body


class TestDecoderMatchesReference:
    """Tenant text at the trust boundary: every input decodes to the same
    circuit, or fails with the same ``QasmError``, as the reference decoder."""

    @_FUZZ_SETTINGS
    @given(text=_qasm_texts())
    def test_generated_texts(self, text):
        assert _outcome(from_qasm, text) == _outcome(_reference_from_qasm, text)

    @_FUZZ_SETTINGS
    @given(text=_mutated_texts())
    def test_mutated_texts(self, text):
        assert _outcome(from_qasm, text) == _outcome(_reference_from_qasm, text)
