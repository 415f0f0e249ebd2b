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
from typing import TYPE_CHECKING, NoReturn

from .scalars import GaussianRational, I, ONE, ZERO, Monomial, SymbolicAmplitude, _gr, _reduced
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
# Deepest accepted nesting of parentheses: each level costs a few parser
# frames, and this keeps the deepest amplitude well inside the
# interpreter's recursion limit.
MAX_NESTING = 100


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

# a declarable symbol name; its conjugate partner is the name plus "~"
_NAME = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IDENT = _re.compile(_NAME.pattern + "~?")
# a directive's words; space and tab are the only blanks, as in the ket grammar
_TOKEN = _re.compile(r"[^ \t]+")
# only ASCII digits: \d and str.isdigit also take other scripts' digits
_DIGITS = _re.compile(r"[0-9]+")
# a directive's integer: an optional minus, then a digit run as in a ket
_INT = _re.compile(r"-?[0-9]+")
_BITS = _re.compile(r"[01]*")
# an ``i`` that ends a number or a parenthesis, not one that starts a name
# (\w is str.isalnum() and "_")
_IMAG = _re.compile(r"i(?![\w~])")
# a number literal: an unsigned integer or ``p/q`` (group 1: numerator 2,
# denominator 3), then an optional ``i`` suffix (group 4)
_LITERAL = _re.compile(r"(([0-9]+)(?:/([0-9]*))?)(" + _IMAG.pattern + ")?")
# a scalar as GaussianRational.__str__ writes one with a nonzero real part,
# with no blanks and no word character after it: (p/q), or ((p/q)+(r/s)i)
# when group 1 holds the inner "("; numerators p (group 2) and r (group 4)
# may be negative, and each denominator (groups 3 and 5) may be left out
_SCALAR = _re.compile(r"\((\()?(-?[0-9]+)(?:/([0-9]+))?"
                      r"(?(1)\)\+\((-?[0-9]+)(?:/([0-9]+))?\)i)\)(?!\w)")


class _Expr:
    """Recursive-descent parser for ket and amplitude expressions.

    The cursor ``i`` always sits past blanks, on the character ``ch`` (""
    at the end): ``_take`` consumes each token, records where it ended as
    ``end`` and skips the blanks after it.  The rules that take no blank
    compare against ``end``: ``^`` after a name, ``i`` after ``)``, and
    ``|`` after a bare number.

    An amplitude is a ``SymbolicAmplitude`` while a symbol remains in it and
    a ``GaussianRational`` otherwise, so symbol-free input pays for no
    polynomial arithmetic.  A parenthesised scalar in the form ``str``
    renders, such as ``(3/4)`` or ``((1/2)+(-3)i)``, is read with one
    ``_SCALAR`` match and one gcd; every other text, and every error, goes
    through the general grammar.
    """

    def __init__(self, src: str, line: int, col_base: int,
                 declared: set[str] | None) -> None:
        self.s = src
        self.line = line
        self.col_base = col_base
        self.declared = declared  # None accepts every symbol
        self.depth = 0  # parentheses open at the cursor
        self._take(0)

    def err(self, message: str, pos: int | None = None) -> NoReturn:
        at = self.i if pos is None else pos
        raise DslError(self.line, self.col_base + at, message)

    def _take(self, end: int) -> None:
        """Consume the text before ``end``: record ``end`` and move the
        cursor past the blanks after it."""
        s = self.s
        self.end = end
        ch = s[end:end + 1]
        while ch == " " or ch == "\t":
            end += 1
            ch = s[end:end + 1]
        self.i = end
        self.ch = ch

    # -- ket grammar ------------------------------------------------

    def ket_expr(self, n_qubits: int | None) -> Ket:
        if self.s[self.i:].rstrip(" \t") == "0":
            if n_qubits is None:
                self.err("cannot infer the qubit count of the zero state")
            return Ket.zero(n_qubits)
        # every bitstring and width is checked here, so the sum is wrapped
        # as it stands
        terms: dict[str, GaussianRational | SymbolicAmplitude] = {}
        n = n_qubits
        sign = 1
        start = self.i  # a term's position: past the blanks before it, or just past its sign
        if self.ch == "-":
            start += 1
            self._take(start)
            sign = -1
        while True:
            bits, a = self._ket_term()
            if n is None:
                n = len(bits)
                if n > MAX_QUBITS:
                    self.err(f"kets have at most {MAX_QUBITS} qubits", pos=start)
            elif len(bits) != n:
                self.err(f"expected {n}-qubit kets throughout", pos=start)
            if sign < 0:
                a = -a
            prev = terms.get(bits)
            terms[bits] = a if prev is None else prev + a
            ch = self.ch
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                break
            start = self.i + 1
            self._take(start)
        if self.ch:
            self.err("unexpected trailing input")
        return Ket._canonical(n, terms)

    def _ket_term(self) -> tuple[str, GaussianRational | SymbolicAmplitude]:
        ch = self.ch
        if ch == "(":
            a = self._paren_amp()
            bar = self.i
        elif "0" <= ch <= "9":
            a = self._literal(suffix=False)
            bar = self.end  # no blank between a bare number and its '|'
        elif ch == "|":
            a, bar = ONE, self.i
        else:
            self.err("expected a coefficient or '|'")
        s = self.s
        if s[bar:bar + 1] != "|":
            self.err("expected '|'", pos=bar)
        start = bar + 1
        end = _BITS.match(s, start).end()
        if end == start:
            self.err("expected bits after '|'", pos=start)
        ch = s[end:end + 1]
        if "0" <= ch <= "9":
            self.err("bitstring may only contain 0 and 1", pos=end)
        if ch != ">":
            self.err("expected '>'", pos=end)
        self._take(end + 1)
        return s[start:end], a

    # -- amplitude grammar ------------------------------------------

    def amplitude(self) -> GaussianRational | SymbolicAmplitude:
        negate = self.ch == "-"
        if negate:
            self._take(self.i + 1)
        acc = self._aterm()
        if negate:
            acc = -acc
        while True:
            ch = self.ch
            if ch == "+":
                self._take(self.i + 1)
                acc = acc + self._aterm()
            elif ch == "-":
                self._take(self.i + 1)
                acc = acc - self._aterm()
            else:
                return acc

    def _aterm(self) -> GaussianRational | SymbolicAmplitude:
        factor = self._factor()
        if self.ch != "*":
            return SymbolicAmplitude._canonical({factor: ONE}) if type(factor) is tuple else factor
        # The product is coeff * names * poly, of `count` terms and degree
        # `degree`: numbers and symbol powers fold into coeff and names, so
        # only a parenthesised symbolic factor is multiplied out.  coeff is
        # None until a number comes, so the first one costs no multiply.
        coeff, names, poly = None, [], None
        count, degree, star = 1, 0, None
        while True:
            kind = type(factor)
            if kind is tuple:
                rcount, rdegree = 1, len(factor)
            elif kind is GaussianRational:
                rcount, rdegree = 1 if factor else 0, 0
            else:
                rcount, rdegree = len(factor), factor.degree()
            if star is not None and count * rcount > MAX_PRODUCT_TERMS:
                self.err(f"product expands past {MAX_PRODUCT_TERMS} terms", pos=star)
            if count and rcount:
                # with no zero divisors, degrees add under a product of
                # nonzero operands
                degree += rdegree
                if degree > MAX_EXPONENT:
                    self.err(f"degree must be at most {MAX_EXPONENT}", pos=star)
                if kind is tuple:
                    names += factor
                elif kind is GaussianRational:
                    coeff = factor if coeff is None else coeff * factor
                else:
                    poly = factor if poly is None else poly * factor
                    count = len(poly)
            else:  # a product with a zero operand is zero, of degree 0
                coeff, names, poly, count, degree = ZERO, [], None, 0, 0
            if self.ch != "*":
                break
            star = self.i
            self._take(star + 1)
            factor = self._factor()
        if names:
            if coeff is None:
                coeff = ONE
            term = SymbolicAmplitude._canonical({tuple(sorted(names)): coeff})
            return term if poly is None else poly * term
        if poly is None:
            return coeff
        return poly if coeff is None else poly * coeff

    def _factor(self) -> GaussianRational | SymbolicAmplitude | Monomial:
        """A number, ``i`` or parenthesized amplitude, or a symbol power as
        its monomial."""
        ch = self.ch
        if ch == "(":
            return self._paren_amp()
        if "0" <= ch <= "9":
            return self._literal(suffix=True)
        start = self.i
        m = _IDENT.match(self.s, start)
        if m is None:
            self.err("expected a number, symbol, 'i', or '('")
        name = m.group()
        self._take(m.end())
        if name == "i":
            return I
        if name == "i~":  # amp rejects it, and no circuit can declare it
            self.err("'i' is reserved for the imaginary unit", pos=start)
        if self.declared is not None and name not in self.declared:
            self.err(f"undeclared symbol '{name}'", pos=start)
        if self.s[self.end:self.end + 1] != "^":
            return (name,)
        pstart = self.end + 1  # the exponent's digits follow '^' with no blank
        m = _DIGITS.match(self.s, pstart)
        if m is None:
            self.err("expected a number", pos=pstart)
        power = self._digits(m, 0)
        if power < 1:
            self.err("exponent must be positive", pos=start)
        if power > MAX_EXPONENT:
            self.err(f"exponent must be at most {MAX_EXPONENT}", pos=pstart)
        self._take(m.end())
        return (name,) * power

    def _paren_amp(self) -> GaussianRational | SymbolicAmplitude:
        if self.depth == MAX_NESTING:
            self.err(f"parentheses nest at most {MAX_NESTING} deep")
        m = _SCALAR.match(self.s, self.i)
        # the complex form opens one more '(', which may pass the bound
        if m is not None and (m.group(1) is None or self.depth < MAX_NESTING - 1):
            _, p, q, r, s = m.groups()
            try:
                p, q, r, s = int(p), int(q or 1), int(r or 0), int(s or 1)
            except ValueError:  # past int()'s length limit: the general path reports it
                pass
            else:
                if q and s:  # a zero denominator is the general path's error too
                    self._take(m.end())
                    return _reduced(p * s, r * q, q * s)
        self.depth += 1
        self._take(self.i + 1)  # consume '('
        a = self.amplitude()
        if self.ch != ")":
            self.err("expected ')'")
        self.depth -= 1
        self._take(self.i + 1)
        if _IMAG.match(self.s, self.end) is None:
            return a
        self._take(self.end + 1)
        if type(a) is GaussianRational:
            return _gr(-a._b, a._a, a._d)  # times i: a rotation keeps lowest terms
        return a * I

    def _literal(self, suffix: bool) -> GaussianRational:
        """The unsigned integer or ``p/q`` at the cursor, times ``i`` when an
        ``i`` suffix follows and ``suffix`` allows one."""
        m = _LITERAL.match(self.s, self.i)
        num, den = self._digits(m, 2), 1
        if m.group(3) is not None:
            if not m.group(3):
                self.err("expected a denominator", pos=m.start(3))
            den = self._digits(m, 3)
            if not den:
                self.err("denominator cannot be zero", pos=m.start(3))
        if suffix and m.group(4):
            self._take(m.end())
            return _reduced(0, num, den)
        self._take(m.end(1))
        return _reduced(num, 0, den)

    def _digits(self, m: _re.Match, group: int) -> int:
        try:
            return int(m.group(group))
        except ValueError:  # past the interpreter's int-to-str length limit
            self.err("invalid number", pos=m.start(group))


def parse_ket(text: str, *, n_qubits: int | None = None) -> Ket:
    """Parse a standalone ket expression."""
    return _Expr(text, 1, 1, None).ket_expr(n_qubits)


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    # the pattern keeps out the '+2', '0_3', padded and non-ASCII forms int() takes;
    # int() still rejects digit strings past the interpreter's length limit
    if _INT.fullmatch(token):
        try:
            return int(token)
        except ValueError:
            pass
    raise DslError(line, col, f"{what} must be an integer")


def parse_circuit(text: str) -> Circuit:
    """Parse DSL text into a validated circuit."""
    from .circuit import ApplyGate, Circuit, Expect, Project, check_instruction

    declared: set[str] = set()  # each declared name and its conjugate
    n_qubits: int | None = None
    labels: tuple[str, ...] | None = None
    state: Ket | None = None
    instructions: list[Instruction] = []

    # only \r\n, \r and \n end a line; str.splitlines also breaks on form
    # feeds, U+2028 and other separators, which a comment may hold
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # a final line break ends a line and starts none
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        first = _TOKEN.search(body)
        if first is None:
            continue
        word, col, end = first.group(), first.start() + 1, first.end()
        # the ket parser reads the rest of a state or expect line itself
        args = [] if word in ("state", "expect") else [
            (m.group(), m.start() + 1) for m in _TOKEN.finditer(body, end)]

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
                if not _NAME.fullmatch(name):
                    raise DslError(lineno, ncol, f"invalid symbol name {name!r}")
                if name == "i":
                    raise DslError(lineno, ncol, "'i' is reserved for the imaginary unit")
                if name in declared:
                    raise DslError(lineno, ncol, f"symbol {name!r} already declared")
                declared.update((name, name + "~"))

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
            state = _Expr(body[end:], lineno, end + 1, declared).ket_expr(n_qubits)

        elif word in _INSTRUCTIONS:
            min_args, usage = _INSTRUCTIONS[word]
            if len(args) < min_args:
                raise DslError(lineno, col, usage)
            (head, hcol), targets = args[0], args[1:]
            qubits = tuple(_parse_int(t, lineno, tcol, "target") for t, tcol in targets)
            kind = ApplyGate if word == "apply" else Project
            ins = kind(head, qubits)
            try:
                check_instruction(ins, n_qubits)
            except OperandError as exc:
                at = hcol if exc.index is None else targets[exc.index][1]
                raise DslError(lineno, at, str(exc)) from None
            instructions.append(ins)

        elif word == "expect":
            expected = _Expr(body[end:], lineno, end + 1, declared).ket_expr(n_qubits)
            instructions.append(Expect(expected, location=f"line {lineno}"))

        else:
            raise DslError(lineno, col, f"unknown directive '{word}'")

    if n_qubits is None:
        raise DslError(max(len(lines), 1), 1, "missing 'qubits' directive")
    if state is None:
        state = Ket.basis("0" * n_qubits)
    # every part is checked above: the state, each expect and the labels for
    # their width, each apply and project line by check_instruction
    return Circuit._checked(state, tuple(instructions), labels)
