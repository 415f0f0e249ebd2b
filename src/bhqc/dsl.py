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
``MAX_EXPONENT``, ``MAX_PRODUCT_TERMS`` and ``MAX_NESTING`` bound the work
one line of text can ask for.
"""

from __future__ import annotations

import re as _re

from .scalars import GaussianRational, I, ONE, ZERO, Monomial, SymbolicAmplitude, _gr, _reduced
from .states import MAX_QUBITS, Ket, OperandError, counted

TYPE_CHECKING = False  # type checkers read it as true, so typing never loads
if TYPE_CHECKING:  # parse_circuit imports circuit when called
    from typing import NoReturn

    from .circuit import Circuit, Instruction

# Largest accepted total degree of a monomial, for a power ``alpha^k`` and
# for a product alike: a monomial of degree k is a k-name tuple, so unbounded
# powers let one short line allocate without limit, and a chain of names,
# each ``*`` re-sorting a longer tuple, takes time quadratic in its degree.
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
# a parenthesised scalar as GaussianRational.__str__ writes it, with no blank
# and no word character after it: (p/q), or, when group 1 holds the inner
# "(", ((p/q)i) or ((p/q)+(r/s)i); numerators p (group 2) and r (group 4)
# may be negative, and denominators (groups 3 and 5) may be left out
_SCALAR = _re.compile(r"\((\()?(-?[0-9]+)(?:/([0-9]+))?"
                      r"(?(1)\)(?:\+\((-?[0-9]+)(?:/([0-9]+))?\))?i)\)(?!\w)")
# a polynomial as bhqc and bench/exact.py render one, with no blanks but
# the ones in " + " and " - " and no word character after it: terms such as
# -alpha, (2)*alpha*beta~, ((-2)i)*alpha or ((1/2)+(-3)i)*beta, a leading "-"
# on the first term only, each coefficient in one of _SCALAR's forms
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_TERM = (rf"(?:\((?:{_RATIONAL}|\({_RATIONAL}\)(?:\+\({_RATIONAL}\))?i)\)\*)?"
         rf"{_IDENT.pattern}(?:\*{_IDENT.pattern})*")
_POLY = _re.compile(rf"\(-?{_TERM}(?: [+-] {_TERM})*\)(?!\w)")


class _Expr:
    """Recursive-descent parser for ket and amplitude expressions.

    The cursor ``i`` always sits past blanks, on the character ``ch`` (""
    at the end): ``_take`` consumes each token, records where it ended as
    ``end`` and skips the blanks after it.  The rules that take no blank
    compare against ``end``: ``^`` after a name, ``i`` after ``)``, and
    ``|`` after a bare number.

    An amplitude is a ``SymbolicAmplitude`` while a symbol remains in it and
    a ``GaussianRational`` otherwise, so symbol-free input pays for no
    polynomial arithmetic.  An amplitude is read one of two ways:

    - Rendered text in one match.  A parenthesised scalar in a form ``str``
      writes, such as ``(3/4)``, ``((1/2)i)`` or ``((1/2)+(-3)i)``, is one
      ``_SCALAR`` match and one gcd.  A parenthesised polynomial in the form
      bhqc and ``bench/exact.py`` write, such as ``(((-2)i)*alpha*beta~ -
      beta)``, is one ``_POLY`` match, its terms summed in one dict.  Text
      that matches but that the general grammar reads otherwise, or
      rejects, is left to it from the same cursor.
    - Everything else by plain arithmetic in the general grammar: each
      factor is an amplitude, and a product multiplies its one-term factors
      together before the others.  Powers, constant terms inside a
      polynomial, the bare ``i``, ``-i`` and ``Ni``, hand-written text and
      every error take this way.
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
        while self.ch == "+" or self.ch == "-":
            plus = self.ch == "+"
            self._take(self.i + 1)
            acc = acc + self._aterm() if plus else acc - self._aterm()
        return acc

    def _aterm(self) -> GaussianRational | SymbolicAmplitude:
        # The product is poly * term, of degree `degree`: a factor of one
        # term multiplies into term, so a chain of numbers and names
        # multiplies poly's many terms once, not once per '*'.  That bounds
        # the work: left to right, (S * S * x * ... * x) with S a 64-name sum
        # would re-sort 2,080 ever longer monomials per x (TestProductBound).
        poly, term = ONE, self._factor()
        degree = term.degree() if term.has_symbols else 0
        if _size(term) > 1:
            poly, term = term, ONE
        while self.ch == "*":
            star = self.i
            self._take(star + 1)
            factor = self._factor()
            count, rcount = _size(poly) * _size(term), _size(factor)
            if count * rcount > MAX_PRODUCT_TERMS:
                self.err(f"product expands past {MAX_PRODUCT_TERMS} terms", pos=star)
            if not count:  # a product with a zero operand stays zero
                continue
            # with no zero divisors, degrees add under a product of nonzero
            # operands, and a zero factor adds none
            degree += factor.degree() if factor.has_symbols else 0
            if degree > MAX_EXPONENT:
                self.err(f"degree must be at most {MAX_EXPONENT}", pos=star)
            if rcount > 1:
                poly = poly * factor
            else:
                term = term * factor
        return term if poly is ONE else poly * term

    def _factor(self) -> GaussianRational | SymbolicAmplitude:
        """A number, ``i``, symbol power or parenthesized amplitude."""
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
        power = 1
        if self.s[self.end:self.end + 1] == "^":
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
        return SymbolicAmplitude._canonical({(name,) * power: ONE})

    def _paren_amp(self) -> GaussianRational | SymbolicAmplitude:
        if self.depth == MAX_NESTING:
            self.err(f"parentheses nest at most {MAX_NESTING} deep")
        # a rendered scalar or polynomial is read in one match, unless it
        # could pass the bound: it opens up to three parentheses
        if self.depth < MAX_NESTING - 2:
            m = _SCALAR.match(self.s, self.i)
            if m is not None:
                a = _scalar_value(m)
            else:
                m = _POLY.match(self.s, self.i)
                a = m and self._poly_value(m.group())
            if a is not None:
                self._take(m.end())
                return a
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
        return a * I

    def _poly_value(self, text: str) -> GaussianRational | SymbolicAmplitude | None:
        """The value of a ``_POLY`` match, or None where the general grammar
        reads it otherwise or reports an error: a coefficient that
        ``_scalar_value`` refuses, the name ``i`` or ``i~``, an undeclared
        name, or a term past the degree bound."""
        declared = self.declared
        body = text[1:-1]
        # a leading '-', or else a '+', becomes the first sign, so the words
        # alternate sign and term
        words = iter(("- " + body[1:] if body[0] == "-" else "+ " + body).split(" "))
        terms: dict[Monomial, GaussianRational] = {}
        for sign, term in zip(words, words):
            coeff, names = ONE, term
            if term[0] == "(":
                head, _, names = term.partition(")*")
                try:
                    coeff = _gr(int(head[1:]), 0, 1)  # (p): an integer is in lowest terms
                except ValueError:  # (p/q), ((p/q)i), ((p/q)+(r/s)i), or past int()'s length limit
                    coeff = _scalar_value(_SCALAR.match(term))
                    if coeff is None:
                        return None
            names = names.split("*")
            if len(names) > MAX_EXPONENT:
                return None
            if declared is None:
                if "i" in names or "i~" in names:
                    return None
            elif not declared.issuperset(names):
                return None
            if sign == "-":
                coeff = -coeff
            mono = tuple(sorted(names))
            prev = terms.pop(mono, None)
            if prev is not None:
                coeff = prev + coeff
            if coeff:  # a zero coefficient, or like terms that cancel, leave no term
                terms[mono] = coeff
        return SymbolicAmplitude._canonical(terms) if terms else ZERO

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


def _size(a: GaussianRational | SymbolicAmplitude) -> int:
    """The number of terms: 0 for zero."""
    return len(a) if a.has_symbols else 1 if a else 0


def _scalar_value(m: _re.Match) -> GaussianRational | None:
    """The value of a ``_SCALAR`` match in any of its three forms, or None
    where the general grammar reports an error: a digit run past ``int()``'s
    length limit, or a zero denominator."""
    inner, p, q, r, s = m.groups()
    imaginary = inner is not None and r is None  # ((p/q)i)
    try:
        p, q, r, s = int(p), int(q or 1), int(r or 0), int(s or 1)
    except ValueError:
        return None
    if not (q and s):
        return None
    return _reduced(0, p, q) if imaginary else _reduced(p * s, r * q, q * s)


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
    from . import circuit  # imported here, since parse_ket needs none of it
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
                raise DslError(lineno, col, f"expected {counted(n_qubits, 'label')}")
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
            kind = circuit.ApplyGate if word == "apply" else circuit.Project
            ins = kind(head, qubits)
            try:
                circuit.check_instruction(ins, n_qubits)
            except OperandError as exc:
                at = hcol if exc.index is None else targets[exc.index][1]
                raise DslError(lineno, at, str(exc)) from None
            instructions.append(ins)

        elif word == "expect":
            expected = _Expr(body[end:], lineno, end + 1, declared).ket_expr(n_qubits)
            instructions.append(circuit.Expect(expected, location=f"line {lineno}"))

        else:
            raise DslError(lineno, col, f"unknown directive {word!r}")

    if n_qubits is None:
        raise DslError(max(len(lines), 1), 1, "missing 'qubits' directive")
    if state is None:
        state = Ket.basis("0" * n_qubits)
    # every part is checked above: the state, each expect and the labels for
    # their width, each apply and project line by check_instruction
    return circuit.Circuit._checked(state, tuple(instructions), labels)
