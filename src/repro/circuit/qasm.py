"""Minimal OpenQASM 2 serialisation for :class:`QuantumCircuit`.

Only the subset needed to round-trip circuits produced by this library is
supported: quantum/classical register declarations, the gates listed in
:mod:`repro.circuit.gates`, barriers and measurements.

``from_qasm`` sits on a trust boundary — the HTTP gateway feeds it text sent
by arbitrary network clients — so every malformed input must surface as a
:class:`QasmError` (a ``ValueError`` subclass) with the offending line, never
as a bare ``KeyError``/``IndexError`` leaking parser internals.
"""

from __future__ import annotations

import math
import re

from .circuit import QuantumCircuit
from .gates import GATE_SPECS, Gate, Instruction

__all__ = ["QasmError", "to_qasm", "from_qasm"]

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# Gate names that differ between this library and qelib1.
_TO_QASM_NAME = {"p": "u1", "xx_plus_yy": "xx_plus_yy"}
_FROM_QASM_NAME = {"u1": "p", "cu1": "cp", "cu3": "cu3", "id": "id", "iden": "id"}


class QasmError(ValueError):
    """Malformed or unsupported OpenQASM 2 input.

    Raised for every parse-level problem — syntax errors, undeclared or
    duplicate registers, out-of-range qubit/clbit indices, unsupported gates,
    bad parameter expressions — so callers at trust boundaries can catch one
    exception type and turn it into a structured error response.
    """


def _format_param(value: float) -> str:
    """Render a parameter, using multiples of pi where exact.

    The first denominator (in order) with a nonzero numerator ``|num| <=
    16*denom`` within 1e-12 of ``value`` wins.  Candidates are ``pi/denom``
    apart, so at most one numerator per denominator can be that close, and
    it is the nearest one: one ``round`` finds it.  Beyond ``16*pi`` (plus
    the tolerance) no candidate exists, which also keeps inf and nan out of
    ``round``.
    """
    if abs(value) <= 51.0:
        for denom in (1, 2, 3, 4, 6, 8, 16):
            num = round(value * denom / math.pi)
            if num and abs(num) <= 16 * denom and abs(value - num * math.pi / denom) < 1e-12:
                return f"pi*{num}/{denom}" if denom != 1 else f"pi*{num}"
    if abs(value) < 1e-15:
        return "0"
    return repr(float(value))


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to an OpenQASM 2 string.

    The text is stored on the circuit and returned again while the circuit
    is unchanged, so a cached result costs one encode however often it is
    sent.  The memo is dropped by ``append``/``barrier`` and is ignored once
    ``_instructions`` is rebound or changes length, or the qubit or clbit
    count changes (see :meth:`QuantumCircuit.fingerprint`).
    """
    instructions = circuit._instructions
    key = (len(instructions), circuit.num_qubits, circuit.num_clbits)
    memo = circuit._qasm
    if memo is not None and memo[0] is instructions and memo[1] == key:
        return memo[2]
    text = _encode(circuit)
    circuit._qasm = (instructions, key, text)
    return text


def _encode(circuit: QuantumCircuit) -> str:
    lines = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{max(circuit.num_qubits, 1)}];")
    lines.append(f"creg c[{max(circuit.num_clbits, 1)}];")
    for instr in circuit:
        name = _TO_QASM_NAME.get(instr.name, instr.name)
        if instr.name == "barrier":
            qubits = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {qubits};" if qubits else "barrier q;")
            continue
        if instr.name == "measure":
            q = instr.qubits[0]
            c = instr.clbits[0] if instr.clbits else q
            lines.append(f"measure q[{q}] -> c[{c}];")
            continue
        params = ""
        if instr.params:
            params = "(" + ",".join(_format_param(p) for p in instr.params) + ")"
        qubits = ",".join(f"q[{q}]" for q in instr.qubits)
        lines.append(f"{name}{params} {qubits};")
    return "\n".join(lines) + "\n"


#: One gate statement.  The parameter text runs to the last ``)`` before the
#: operands, so nested groups like ``rz((pi+1)*2)`` reach the expression
#: parser whole; operands hold no parentheses.  Tenant text reaches this
#: regex, so each part has one way to match (the name ends where its
#: characters do, the operands start at a non-space): a failing match costs
#: time linear in the line, not cubic.
_TOKEN_RE = re.compile(
    r"\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_])\s*"
    r"(?:\((?P<params>[^;]*)\)\s*)?"
    r"(?P<args>(?:[^\s;()][^;()]*)?);"
)

#: Most qubits, and most clbits, one text may declare in total: far above the
#: largest device (127 qubits), and a bound on what a short declaration can
#: cost, since a bare ``barrier`` materialises every declared qubit.
MAX_REGISTER_BITS = 1024

_REG_DECL_RE = re.compile(r"^(?P<kind>qreg|creg)\s+(?P<name>\w+)\s*\[(?P<size>\d+)\]\s*;$")
_ARG_RE = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\[(?P<index>\d+)\])?$")
_MEASURE_RE = re.compile(
    r"^measure\s+(?P<qreg>\w+)\s*\[(?P<qidx>\d+)\]\s*->\s*(?P<creg>\w+)\s*\[(?P<cidx>\d+)\]\s*;$"
)


#: a float literal; every digit run has one place to go, so a long literal
#: with a bad tail fails in linear time
_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"

#: one parameter-expression token: a float literal, ``pi``, or an operator
_PARAM_TOKEN_RE = re.compile(rf"\s*(?:({_NUMBER})|(pi)|([-+*/()]))")

#: the two forms :func:`_format_param` emits: ``[-]literal`` and ``pi*N[/D]``
_LITERAL_RE = re.compile(rf"-?(?:{_NUMBER})")
_PI_MULTIPLE_RE = re.compile(r"pi\*(-?[0-9]+)(?:/([0-9]+))?")


class _ParamParser:
    """Recursive descent over one tokenised parameter expression.

    Grammar, with Python's precedence (unary signs bind tighter than
    ``*``/``/``) and left associativity::

        expr  := term (("+" | "-") term)*
        term  := unary (("*" | "/") unary)*
        unary := ("+" | "-")* atom
        atom  := NUMBER | "pi" | "(" expr ")"
    """

    def __init__(self, tokens: list):
        self.tokens = tokens + [None]
        self.pos = 0

    def take(self, *ops: str) -> "str | None":
        token = self.tokens[self.pos]
        if isinstance(token, str) and token in ops:
            self.pos += 1
            return token
        return None

    def parse(self) -> float:
        value = self.expr()
        if self.tokens[self.pos] is not None:
            raise QasmError(f"unexpected {self.tokens[self.pos]!r}")
        return value

    def expr(self) -> float:
        value = self.term()
        while op := self.take("+", "-"):
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.unary()
        while op := self.take("*", "/"):
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> float:
        negative = False
        while op := self.take("+", "-"):
            negative ^= op == "-"
        value = self.atom()
        return -value if negative else value

    def atom(self) -> float:
        if self.take("("):
            value = self.expr()
            if not self.take(")"):
                raise QasmError("unbalanced parentheses")
            return value
        token = self.tokens[self.pos]
        if not isinstance(token, float):
            raise QasmError(f"unexpected {token or 'end of expression'!r}")
        self.pos += 1
        return token


def _eval_param(expr: str) -> float:
    """Evaluate a QASM parameter expression.

    Accepts numbers, ``pi``, unary ``+``/``-``, left-associative
    ``+ - * /`` and parentheses.  No ``eval``: tenant text reaches this
    parser, and an operator like ``**`` would let one angle cost unbounded
    time while holding the GIL.  Literals are parsed as floats and combined
    with Python's precedence rules, so every angle :func:`_format_param`
    emits reads back bit-identically.

    The forms :func:`to_qasm` writes skip the parser: a signed literal is
    one ``float`` (negating a float is exact, so ``float("-x") == -float("x")``)
    and ``pi*N/D`` is the same left-to-right product and quotient the
    parser computes.  Anything else, including a zero denominator, takes
    the parser.
    """
    text = expr.strip()
    if _LITERAL_RE.fullmatch(text):
        return float(text)
    match = _PI_MULTIPLE_RE.fullmatch(text)
    if match:
        num, denom = match.groups()
        if denom is None:
            return math.pi * float(num)
        if float(denom):
            return math.pi * float(num) / float(denom)
    return _parse_param(text)


def _parse_param(text: str) -> float:
    """Tokenise and evaluate one stripped parameter expression (the general path)."""
    tokens: list = []
    pos = 0
    while pos < len(text):
        match = _PARAM_TOKEN_RE.match(text, pos)
        if match is None:
            raise QasmError(f"unsupported parameter expression: {text!r}")
        number, constant, op = match.groups()
        tokens.append(float(number) if number else math.pi if constant else op)
        pos = match.end()
    try:
        return _ParamParser(tokens).parse()
    except (QasmError, ZeroDivisionError, RecursionError) as exc:
        raise QasmError(f"invalid parameter expression {text!r}: {exc}") from None


class _Registers:
    """Declared registers of one kind (quantum or classical), with offsets."""

    def __init__(self, kind: str):
        self.kind = kind
        self.offsets: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.total = 0

    def declare(self, name: str, size_text: str, line: str) -> None:
        if name in self.offsets:
            raise QasmError(f"duplicate register name {name!r}: {line!r}")
        # Count digits first, here and in resolve: int() refuses 4301 digits.
        size = int(size_text) if len(size_text) <= 9 else MAX_REGISTER_BITS + 1
        if self.total + size > MAX_REGISTER_BITS:
            raise QasmError(
                f"{self.kind} registers declare more than {MAX_REGISTER_BITS} bits: {line!r}"
            )
        self.offsets[name] = (self.total, size)
        self.total += size

    def resolve(self, name: str, index_text: str, line: str) -> int:
        entry = self.offsets.get(name)
        if entry is None:
            raise QasmError(
                f"undeclared {self.kind} register {name!r} "
                f"(declared: {sorted(self.offsets) or 'none'}): {line!r}"
            )
        offset, size = entry
        index = int(index_text) if len(index_text) <= 9 else size
        if not 0 <= index < size:
            raise QasmError(
                f"index {index_text} out of range for {self.kind} register "
                f"{name}[{size}]: {line!r}"
            )
        return offset + index

    def expand(self, name: str, line: str) -> list[int]:
        """Every bit of one register, in order (used by bare-register barriers)."""
        entry = self.offsets.get(name)
        if entry is None:
            raise QasmError(
                f"undeclared {self.kind} register {name!r} "
                f"(declared: {sorted(self.offsets) or 'none'}): {line!r}"
            )
        offset, size = entry
        return list(range(offset, offset + size))


def _parse_gate_args(args: str, qregs: _Registers, line: str) -> tuple[int, ...]:
    """Resolve comma-separated ``reg[idx]`` gate operands to flat qubit indices."""
    qubits: list[int] = []
    for arg in args.split(","):
        arg = arg.strip()
        if not arg:
            raise QasmError(f"empty operand in QASM line: {line!r}")
        match = _ARG_RE.match(arg)
        if not match:
            raise QasmError(f"cannot parse operand {arg!r}: {line!r}")
        if match.group("index") is None:
            raise QasmError(
                f"register broadcast ({arg!r} without an index) is not "
                f"supported here: {line!r}"
            )
        qubits.append(qregs.resolve(match.group("name"), match.group("index"), line))
    return tuple(qubits)


def from_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2 string (the subset produced by :func:`to_qasm`).

    Raises :class:`QasmError` on malformed input: undeclared or duplicate
    registers, more than :data:`MAX_REGISTER_BITS` qubits or clbits,
    out-of-range indices, unknown gates, or unparseable lines.
    """
    if not isinstance(text, str):
        raise QasmError(f"QASM input must be a string, got {type(text).__name__}")
    qregs = _Registers("quantum")
    cregs = _Registers("classical")
    body: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        if line.startswith(("OPENQASM", "include")):
            continue
        if not line.startswith(("qreg", "creg")):
            body.append(line)
            continue
        match = _REG_DECL_RE.match(line)
        if match:
            if body:
                raise QasmError(f"register declared after first statement: {line!r}")
            regs = qregs if match.group("kind") == "qreg" else cregs
            # qreg and creg share the QASM identifier namespace: a creg named
            # like an existing qreg (or vice versa) is a duplicate too.
            other = cregs if regs is qregs else qregs
            if match.group("name") in other.offsets:
                raise QasmError(f"duplicate register name {match.group('name')!r}: {line!r}")
            regs.declare(match.group("name"), match.group("size"), line)
            continue
        raise QasmError(f"cannot parse register declaration: {line!r}")

    circuit = QuantumCircuit(qregs.total, cregs.total or None)
    instructions = circuit._instructions
    # One pass over the statements.  Per call, each distinct (name, parameter
    # text) gets one validated Gate and each distinct operand text is
    # resolved once; the registers already range-checked every index, so
    # instructions go straight onto the list.
    gates: dict[tuple[str, str | None], Gate] = {}
    operands: dict[str, tuple[int, ...]] = {}

    def fixed_gate(name: str) -> Gate:
        gate = gates.get((name, None))
        if gate is None:
            gate = gates[name, None] = Gate(name)
        return gate

    for line in body:
        if line.startswith("measure"):
            match = _MEASURE_RE.match(line)
            if not match:
                raise QasmError(f"cannot parse measurement: {line!r}")
            qubit = qregs.resolve(match.group("qreg"), match.group("qidx"), line)
            clbit = cregs.resolve(match.group("creg"), match.group("cidx"), line)
            instructions.append(Instruction(fixed_gate("measure"), (qubit,), (clbit,)))
            continue
        match = _TOKEN_RE.match(line)
        if not match:
            raise QasmError(f"cannot parse QASM line: {line!r}")
        name = match.group("name").lower()
        name = _FROM_QASM_NAME.get(name, name)
        args = (match.group("args") or "").strip()
        if name == "barrier":
            qubits: list[int] = []
            for arg in args.split(",") if args else []:
                arg = arg.strip()
                arg_match = _ARG_RE.match(arg)
                if not arg_match:
                    raise QasmError(f"cannot parse operand {arg!r}: {line!r}")
                if arg_match.group("index") is None:
                    qubits.extend(qregs.expand(arg_match.group("name"), line))
                else:
                    qubits.append(
                        qregs.resolve(
                            arg_match.group("name"), arg_match.group("index"), line
                        )
                    )
            gate = fixed_gate("barrier")
            operand = tuple(qubits) if qubits else tuple(range(circuit.num_qubits))
        else:
            # Errors keep their order: parameters, unsupported gate, missing
            # operands, operands, then parameter count and arity.
            params_text = match.group("params")
            key = (name, params_text)
            gate = gates.get(key)
            if gate is None:
                params = (
                    [_eval_param(p) for p in params_text.split(",")] if params_text else []
                )
                if name == "cu3":
                    name, params = "cu", params + [0.0]
                if name not in GATE_SPECS:
                    raise QasmError(f"unsupported gate in QASM input: {name!r}")
            else:
                name = gate.name
            if not args:
                raise QasmError(f"gate {name!r} has no operands: {line!r}")
            operand = operands.get(args)
            if operand is None:
                operand = operands[args] = _parse_gate_args(args, qregs, line)
            if gate is None:
                try:
                    gate = gates[key] = Gate(name, tuple(params))
                except ValueError as exc:
                    raise QasmError(f"{exc}: {line!r}") from None
        try:
            instructions.append(Instruction(gate, operand))
        except ValueError as exc:
            raise QasmError(f"{exc}: {line!r}") from None
    return circuit
