"""Exact reference arithmetic for checking bhqc's output; imports nothing from bhqc.

- ``Q``: a Gaussian rational as a pair of Fractions.
- Polynomials in formal symbols: dicts from sorted name tuples to int or ``Q``
  coefficients.
- Gates: dense integer matrices built from the literal 2x2 generator
  matrices, applied to a dense vector of polynomials.
- ``eval_ket`` / ``eval_scalar``: evaluate bhqc's rendered ket and scalar
  text at fixed exact values of the symbols.
- ``q_text`` / ``poly_text``: write values in the DSL's input grammar.
"""

from __future__ import annotations

from fractions import Fraction


class Q:
    """Exact complex number re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o: Q | int) -> Q:
        o = _q(o)
        return Q(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> Q:
        return Q(-self.re, -self.im)

    def __sub__(self, o: Q | int) -> Q:
        o = _q(o)
        return Q(self.re - o.re, self.im - o.im)

    def __mul__(self, o: Q | int) -> Q:
        o = _q(o)
        return Q(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> Q:
        d = self.re * self.re + self.im * self.im
        return Q(self.re / d, -self.im / d)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, (Q, int)):
            return NotImplemented
        o = _q(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"Q({self.re}, {self.im})"


def _q(x: Q | int) -> Q:
    return x if isinstance(x, Q) else Q(x)


ZERO, ONE, I = Q(0), Q(1), Q(0, 1)


def _rat(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def q_text(q: Q | int) -> str:
    """A parenthesized DSL factor for ``q``, e.g. ``((3/4)+(-5)i)``."""
    q = _q(q)
    if not q.im:
        return f"({_rat(q.re)})"
    if not q.re:
        return f"(({_rat(q.im)})i)"
    return f"(({_rat(q.re)})+({_rat(q.im)})i)"


# -- polynomials ---------------------------------------------------------

# tuple[str, ...] (sorted symbol names) -> coefficient, no zero values.
# Coefficients are ints where they can be, which keeps the reference fast.
Poly = dict


def add_scaled(acc: Poly, p: Poly, k: Q | int) -> None:
    """acc += k * p, in place."""
    for mono, c in p.items():
        v = acc.get(mono, 0) + c * k
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)


def scaled(p: Poly, k: Q | int) -> Poly:
    out: Poly = {}
    add_scaled(out, p, k)
    return out


def poly_eval(p: Poly, env: dict[str, Q]) -> Q:
    total = ZERO
    for mono, c in p.items():
        c = _q(c)
        for name in mono:
            c = c * env[name]
        total = total + c
    return total


def poly_text(p: Poly) -> str:
    parts = []
    for mono, c in sorted(p.items()):
        parts.append("*".join([q_text(c), *mono]))
    return "(" + " + ".join(parts) + ")"


def ket_text(vec: list[Poly], n: int) -> str:
    """DSL ket expression for a dense vector of polynomials (must be nonzero)."""
    return " + ".join(f"{poly_text(p)}|{i:0{n}b}>" for i, p in enumerate(vec) if p)


# -- gates from the literal 2x2 generators -------------------------------

Matrix = tuple[tuple[int, ...], ...]

IDENT: Matrix = ((1, 0), (0, 1))
STAR: Matrix = ((-1, 0), (0, 1))
RAISE: Matrix = ((0, 0), (1, 0))
LOWER: Matrix = ((0, 1), (0, 0))


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def kron(a: Matrix, b: Matrix) -> Matrix:
    nb = len(b)
    dim = len(a) * nb
    return tuple(tuple(a[r // nb][c // nb] * b[r % nb][c % nb] for c in range(dim))
                 for r in range(dim))


def _lam(k: int) -> Matrix:
    return {
        1: madd(mmul(STAR, RAISE), mmul(RAISE, STAR)),
        2: madd(mmul(STAR, LOWER), mmul(LOWER, STAR)),
        3: madd(mmul(STAR, LOWER), mmul(RAISE, STAR)),
        4: madd(mmul(STAR, RAISE), mmul(LOWER, STAR)),
    }[k]


def _big_lam(k: int) -> Matrix:
    return {
        1: madd(kron(STAR, RAISE), kron(RAISE, STAR)),
        2: madd(kron(STAR, LOWER), kron(LOWER, STAR)),
        3: madd(kron(STAR, RAISE), kron(LOWER, STAR)),
        4: madd(kron(STAR, LOWER), kron(RAISE, STAR)),
    }[k]


def _hplus() -> Matrix:
    return madd(IDENT, mmul(STAR, _lam(4)))


GATES: dict[str, Matrix] = {
    "STAR": STAR, "RAISE": RAISE, "LOWER": LOWER,
    "L1": _lam(1), "L2": _lam(2), "L3": _lam(3), "L4": _lam(4), "NOT": _lam(4),
    "LL1": _big_lam(1), "LL2": _big_lam(2), "LL3": _big_lam(3), "LL4": _big_lam(4),
    "HPLUS": _hplus(), "HMINUS": mmul(_lam(4), _hplus()),
    "SIG2A": mmul(_lam(4), STAR), "SIG2B": mmul(_lam(3), STAR),
    "CNOT": madd(kron(((1, 0), (0, 0)), IDENT), kron(((0, 0), (0, 1)), _lam(4))),
}


def apply_gate(name: str, targets: tuple[int, ...], n: int, vec: list[Poly]) -> list[Poly]:
    """Dense gate application; qubit 0 is the most significant bit."""
    m = GATES[name]
    k = len(targets)
    pos = [n - 1 - t for t in targets]
    out: list[Poly] = [{} for _ in vec]
    for c, p in enumerate(vec):
        if not p:
            continue
        ct = 0
        for b in pos:
            ct = (ct << 1) | ((c >> b) & 1)
        for rt in range(1 << k):
            w = m[rt][ct]
            if not w:
                continue
            r = c
            for j, b in enumerate(pos):
                r = (r & ~(1 << b)) | (((rt >> (k - 1 - j)) & 1) << b)
            add_scaled(out[r], p, w)
    return out


def project(bits: str, targets: tuple[int, ...], n: int, vec: list[Poly]) -> list[Poly]:
    keep = [all(((c >> (n - 1 - t)) & 1) == int(bits[j]) for j, t in enumerate(targets))
            for c in range(len(vec))]
    return [p if kept else {} for p, kept in zip(vec, keep)]


# -- evaluating bhqc's rendered text ------------------------------------

class _Text:
    """Recursive-descent evaluator for rendered kets and amplitudes."""

    def __init__(self, s: str, env: dict[str, Q]) -> None:
        self.s = s
        self.i = 0
        self.env = env

    def fail(self, what: str):
        raise ValueError(f"{what} at offset {self.i} in {self.s!r}")

    def peek(self) -> str:
        self.ws()
        return self.s[self.i] if self.i < len(self.s) else ""

    def ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i] == " ":
            self.i += 1

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def end(self) -> None:
        if self.peek():
            self.fail("trailing text")

    def ket(self) -> dict[str, Q]:
        out: dict[str, Q] = {}
        if self.s.strip() == "0":
            return out
        sign = ONE
        if self.take("-"):
            sign = -ONE
        while True:
            coeff = self.paren() if self.peek() == "(" else ONE
            if not self.take("|"):
                self.fail("expected '|'")
            start = self.i
            while self.i < len(self.s) and self.s[self.i] in "01":
                self.i += 1
            bits = self.s[start:self.i]
            if not bits or not self.take(">") or bits in out:
                self.fail("bad basis ket")
            out[bits] = sign * coeff
            if self.take("+"):
                sign = ONE
            elif self.take("-"):
                sign = -ONE
            else:
                return {b: v for b, v in out.items() if v}

    def amp(self) -> Q:
        acc = -self.term() if self.take("-") else self.term()
        while True:
            if self.take("+"):
                acc = acc + self.term()
            elif self.take("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Q:
        acc = self.factor()
        while self.take("*"):
            acc = acc * self.factor()
        return acc

    def factor(self) -> Q:
        ch = self.peek()
        if ch == "(":
            return self.paren()
        if ch.isdigit():
            return self.imag(Q(self.number()))
        start = self.i
        while self.i < len(self.s) and (self.s[self.i].isalnum() or self.s[self.i] in "_~"):
            self.i += 1
        name = self.s[start:self.i]
        if name == "i":
            return I
        if name not in self.env:
            self.fail(f"unknown name {name!r}")
        value = self.env[name]
        if self.i < len(self.s) and self.s[self.i] == "^":
            self.i += 1
            power = self.number()
            if power.denominator != 1 or power < 1:
                self.fail("bad exponent")
            result = ONE
            for _ in range(int(power)):
                result = result * value
            return result
        return value

    def paren(self) -> Q:
        self.take("(")
        value = self.amp()
        if not self.take(")"):
            self.fail("expected ')'")
        return self.imag(value)

    def imag(self, value: Q) -> Q:
        if self.i < len(self.s) and self.s[self.i] == "i":
            self.i += 1
            return value * I
        return value

    def number(self) -> Fraction:
        start = self.i
        while self.i < len(self.s) and (self.s[self.i].isdigit() or self.s[self.i] == "/"):
            self.i += 1
        try:
            return Fraction(self.s[start:self.i])
        except (ValueError, ZeroDivisionError):
            self.fail("bad number")


def eval_ket(text: str, env: dict[str, Q]) -> dict[str, Q]:
    """Nonzero amplitudes of a rendered ket, with symbols replaced by ``env``."""
    p = _Text(text, env)
    out = p.ket()
    p.end()
    return out


def eval_scalar(text: str, env: dict[str, Q] | None = None) -> Q:
    p = _Text(text, env or {})
    out = p.amp()
    p.end()
    return out
