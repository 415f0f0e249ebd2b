"""Line-oriented circuit DSL plus the ket/amplitude text grammar.

One directive per line; ``#`` starts a comment::

    qubits N                  # required first
    symbols name [name ...]   # formal amplitudes; conjugates are name~
    labels id [id ...]
    state <ket-expr>          # defaults to |00...0>
    apply GATE q [q ...]
    project BITS q [q ...]
    expect <ket-expr>

Ket expressions look like ``|01> + |10>`` or ``(alpha)|0> + (beta)|1>``.
Amplitudes use exact rationals (``1/2``), ``i`` for the imaginary unit,
compound scalars such as ``(1/2)+(-3)i``, and symbol powers ``alpha^2``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import TYPE_CHECKING, NoReturn

from .scalars import GaussianRational, I, ONE, SymbolTable, SymbolicAmplitude
from .states import MAX_QUBITS, Ket, OperandError

if TYPE_CHECKING:  # parse_circuit imports circuit when called
    from .circuit import Circuit, Instruction

# Largest accepted total degree of a monomial, for a power ``alpha^k`` and
# for a product alike: a monomial of degree k is a k-name tuple, so unbounded
# powers let one short line allocate without limit, and a chain of products
# re-sorts ever longer tuples, in time quadratic in the line's length.
MAX_EXPONENT = 1024
# Largest accepted product of two operands' term counts at one ``*``: a
# product of k symbol sums expands to exponentially many terms in k.
MAX_PRODUCT_TERMS = 4096


class DslError(ValueError):
    """Parse failure with a 1-based line and column."""

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# directive -> (fewest tokens after it, usage line)
_INSTRUCTIONS = {"apply": (1, "usage: apply GATE q [q ...]"),
                 "project": (2, "usage: project BITS q [q ...]")}

_IDENT = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*~?")
_TOKEN = _re.compile(r"\S+")


class _Expr:
    """Recursive-descent parser for ket and amplitude expressions."""

    def __init__(self, src: str, line: int, col_base: int,
                 table: SymbolTable | None) -> None:
        self.s = src
        self.i = 0
        self.line = line
        self.col_base = col_base
        self.table = table

    def err(self, message: str, pos: int | None = None) -> NoReturn:
        at = self.i if pos is None else pos
        raise DslError(self.line, self.col_base + at, message)

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i] in " \t":
            self.i += 1

    # -- ket grammar ------------------------------------------------

    def ket_expr(self, n_qubits: int | None) -> Ket:
        self.ws()
        if self.s[self.i:].strip() == "0":
            if n_qubits is None:
                self.err("cannot infer the qubit count of the zero state")
            self.i = len(self.s)
            return Ket.zero(n_qubits)
        entries: list[tuple[str, SymbolicAmplitude]] = []
        n = n_qubits
        sign = 1
        if self.peek() == "-":
            self.i += 1
            sign = -1
        while True:
            start = self.i
            bits, a = self._ket_term()
            if n is None:
                n = len(bits)
                if n > MAX_QUBITS:
                    self.err(f"kets have at most {MAX_QUBITS} qubits", pos=start)
            elif len(bits) != n:
                self.err(f"expected {n}-qubit kets throughout", pos=start)
            entries.append((bits, a if sign > 0 else -a))
            self.ws()
            ch = self.peek()
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                break
            self.i += 1
        if self.i < len(self.s):
            self.err("unexpected trailing input")
        return Ket.from_terms(n, entries)

    def _ket_term(self) -> tuple[str, SymbolicAmplitude]:
        self.ws()
        ch = self.peek()
        if ch == "(":
            a = self._paren_amp()
            self.ws()
        elif ch.isdigit():
            a = SymbolicAmplitude.scalar(GaussianRational(self._number()))
        elif ch == "|":
            a = SymbolicAmplitude.scalar(ONE)
        else:
            self.err("expected a coefficient or '|'")
        if self.peek() != "|":
            self.err("expected '|'")
        self.i += 1
        start = self.i
        while self.peek() in ("0", "1"):
            self.i += 1
        if self.i == start:
            self.err("expected bits after '|'")
        if self.peek().isdigit():
            self.err("bitstring may only contain 0 and 1")
        if self.peek() != ">":
            self.err("expected '>'")
        bits = self.s[start:self.i]
        self.i += 1
        return bits, a

    # -- amplitude grammar ------------------------------------------

    def amplitude(self) -> SymbolicAmplitude:
        self.ws()
        sign = 1
        if self.peek() == "-":
            self.i += 1
            sign = -1
        acc = self._aterm()
        if sign < 0:
            acc = -acc
        while True:
            self.ws()
            ch = self.peek()
            if ch == "+":
                self.i += 1
                acc = acc + self._aterm()
            elif ch == "-":
                self.i += 1
                acc = acc - self._aterm()
            else:
                return acc

    def _aterm(self) -> SymbolicAmplitude:
        acc = self._factor()
        degree = None  # acc.degree(), found at the first '*' and kept after
        while True:
            self.ws()
            if self.peek() != "*":
                return acc
            star = self.i
            self.i += 1
            rhs = self._factor()
            if len(acc) * len(rhs) > MAX_PRODUCT_TERMS:
                self.err(f"product expands past {MAX_PRODUCT_TERMS} terms", pos=star)
            if degree is None:
                degree = acc.degree()
            # with no zero divisors, degrees add under a product of nonzero
            # operands; a product with a zero operand is zero, of degree 0
            degree = degree + rhs.degree() if acc and rhs else 0
            if degree > MAX_EXPONENT:
                self.err(f"degree must be at most {MAX_EXPONENT}", pos=star)
            acc = acc * rhs

    def _factor(self) -> SymbolicAmplitude:
        self.ws()
        ch = self.peek()
        if ch == "(":
            return self._paren_amp()
        if ch.isdigit():
            q = self._number()
            if self._imag_suffix():
                return SymbolicAmplitude.scalar(GaussianRational(0, q))
            return SymbolicAmplitude.scalar(GaussianRational(q))
        m = _IDENT.match(self.s, self.i)
        if m:
            start = self.i
            name = m.group()
            self.i = m.end()
            if name == "i":
                return SymbolicAmplitude.scalar(I)
            self._check_symbol(name, start)
            power = 1
            if self.peek() == "^":
                self.i += 1
                pstart = self.i
                power = self._number(integer=True)
                if power < 1:
                    self.err("exponent must be positive", pos=start)
                if power > MAX_EXPONENT:
                    self.err(f"exponent must be at most {MAX_EXPONENT}", pos=pstart)
            return SymbolicAmplitude._canonical({(name,) * power: ONE})
        self.err("expected a number, symbol, 'i', or '('")

    def _paren_amp(self) -> SymbolicAmplitude:
        self.i += 1  # consume '('
        a = self.amplitude()
        self.ws()
        if self.peek() != ")":
            self.err("expected ')'")
        self.i += 1
        if self._imag_suffix():
            a = a * I
        return a

    def _imag_suffix(self) -> bool:
        if self.peek() != "i":
            return False
        after = self.s[self.i + 1:self.i + 2]
        if after and (after.isalnum() or after in "_~"):
            return False
        self.i += 1
        return True

    def _number(self, integer: bool = False) -> int | Fraction:
        start = self.i
        while self.peek().isdigit():
            self.i += 1
        if self.i == start:
            self.err("expected a number")
        num = self._int(start)
        if integer:
            return num
        if self.peek() == "/":
            self.i += 1
            dstart = self.i
            while self.peek().isdigit():
                self.i += 1
            if self.i == dstart:
                self.err("expected a denominator")
            den = self._int(dstart)
            if den == 0:
                self.err("denominator cannot be zero", pos=dstart)
            return Fraction(num, den)
        return num

    def _int(self, start: int) -> int:
        # str.isdigit admits characters int() rejects (superscripts), and
        # int() refuses digit strings past the interpreter's length limit
        try:
            return int(self.s[start:self.i])
        except ValueError:
            self.err("invalid number", pos=start)

    def _check_symbol(self, name: str, pos: int) -> None:
        if self.table is not None and name not in self.table:
            self.err(f"undeclared symbol '{name}'", pos=pos)


def parse_ket(text: str, *, n_qubits: int | None = None) -> Ket:
    """Parse a standalone ket expression."""
    return _Expr(text, 1, 1, None).ket_expr(n_qubits)


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DslError(line, col, f"{what} must be an integer") from None


def parse_circuit(text: str) -> Circuit:
    """Parse DSL text into a validated circuit."""
    from .circuit import ApplyGate, Circuit, Expect, Project, check_instruction

    table = SymbolTable()
    n_qubits: int | None = None
    labels: tuple[str, ...] | None = None
    state: Ket | None = None
    symbol_order: list[str] = []
    instructions: list[Instruction] = []
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not tokens:
            continue
        (word, col), args = tokens[0], tokens[1:]

        if n_qubits is None and word != "qubits":
            raise DslError(lineno, col, "first directive must be 'qubits'")

        if word == "qubits":
            if n_qubits is not None:
                raise DslError(lineno, col, "duplicate 'qubits' directive")
            if len(args) != 1:
                raise DslError(lineno, col, "usage: qubits N")
            value = _parse_int(args[0][0], lineno, args[0][1], "qubit count")
            if not 1 <= value <= MAX_QUBITS:
                raise DslError(lineno, args[0][1],
                               f"qubit count must be between 1 and {MAX_QUBITS}")
            n_qubits = value

        elif word == "symbols":
            if not args:
                raise DslError(lineno, col, "usage: symbols name [name ...]")
            for name, ncol in args:
                try:
                    table.declare(name)
                except ValueError as exc:
                    raise DslError(lineno, ncol, str(exc)) from None
                symbol_order.append(name)

        elif word == "labels":
            if labels is not None:
                raise DslError(lineno, col, "duplicate 'labels' directive")
            if len(args) != n_qubits:
                raise DslError(lineno, col, f"expected {n_qubits} labels")
            labels = tuple(name for name, _ in args)

        elif word == "state":
            if state is not None:
                raise DslError(lineno, col, "duplicate 'state' directive")
            if instructions:
                raise DslError(lineno, col, "'state' must come before instructions")
            expr_start = body.index(word, col - 1) + len(word)
            state = _Expr(body[expr_start:], lineno, expr_start + 1, table).ket_expr(n_qubits)

        elif word in _INSTRUCTIONS:
            min_args, usage = _INSTRUCTIONS[word]
            if len(args) < min_args:
                raise DslError(lineno, col, usage)
            (head, hcol), targets = args[0], args[1:]
            qubits = tuple(_parse_int(t, lineno, tcol, "target") for t, tcol in targets)
            kind = ApplyGate if word == "apply" else Project
            ins = kind(head, qubits, line=lineno)
            try:
                check_instruction(ins, n_qubits)
            except OperandError as exc:
                at = hcol if exc.index is None else targets[exc.index][1]
                raise DslError(lineno, at, str(exc)) from None
            instructions.append(ins)

        elif word == "expect":
            expr_start = body.index(word, col - 1) + len(word)
            expected = _Expr(body[expr_start:], lineno, expr_start + 1, table).ket_expr(n_qubits)
            instructions.append(Expect(expected, line=lineno))

        else:
            raise DslError(lineno, col, f"unknown directive '{word}'")

    if n_qubits is None:
        raise DslError(max(last_line, 1), 1, "missing 'qubits' directive")
    if state is None:
        state = Ket.basis("0" * n_qubits)
    return Circuit(n_qubits, state, tuple(instructions), labels, tuple(symbol_order))
