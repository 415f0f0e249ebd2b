"""Exact scalars: Gaussian rationals and formal symbolic amplitudes.

Coefficients are complex numbers with arbitrary-precision rational parts.
A Gaussian rational (a + bi)/d is stored as three Python ints: ``a`` and
``b``, the numerators of the real and imaginary parts over one shared
denominator ``d > 0``, with gcd(d, a, b) == 1.  Every sum and product
builds its result with integer arithmetic and brings it to lowest terms
with one gcd, in ``_reduced``, which takes ``d`` first: a result with
``d == 1`` (almost every value in the gate algebra) pays no gcd of its
parts.  A pair of ``Fraction`` parts would pay a gcd and an object for
each part of each partial product instead.  ``.re`` and ``.im`` still
read as ``Fraction``.

Amplitudes are polynomials in commuting formal symbols.  One rule holds
for every value: it is a ``SymbolicAmplitude`` while at least one monomial
of degree 1 or more remains, and a ``GaussianRational`` otherwise, so
``amp(3)`` is a ``GaussianRational`` and ``alpha - alpha`` is ``ZERO``.
Only a sum whose symbols cancel, or a product with zero, turns a symbolic
value into a scalar; a product of two symbolic values stays symbolic, as
there are no zero divisors.  Every value is canonical when it is built, and
equality is structural.

Scalars and amplitudes are immutable, so results share them freely: an
amplitude added to zero is the other operand.  The scalars +1 and -1 are
single shared objects, ``ONE`` and ``MINUS_ONE``: ``amp`` and the
arithmetic operators coerce 1 and -1 to them, and negation maps each to
the other, so negating a unit allocates nothing, and two kets of units
compare by identity before ``__eq__``.  Equality and hashing stay
structural: ``GaussianRational(1)`` is another object equal to ``ONE``.
Every entry of the registry's gates is +1 or -1, and ``operators.act``
moves a term through such an entry by its sign, so amplitudes pass from
one circuit step to the next unchanged or negated, with no multiply.  An
amplitude caches its text on the first ``str``, so a shared amplitude
renders once per run, and a negation holds its operand, so ``-(-a) is a``:
a term that one -1 entry flips and a later one flips back keeps its
polynomial and its text.  Scaling and negation keep the terms in order, so
their results skip the sort.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm

Rational = int | Fraction


def _int_str(n: int) -> str:
    """Decimal text of ``n``, also past the interpreter's int-to-str limit.

    The limit guards parsing untrusted text, and it is process-wide, so it
    stays in place: ``Decimal`` renders an int exactly without it.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rat_str(num: int, den: int = 1) -> str:
    """``num/den`` in lowest terms, or the bare numerator when it is whole."""
    g = gcd(den, num)
    num, den = num // g, den // g
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


class GaussianRational:
    """Complex scalar a + bi with exact rational a, b.

    Stored as ints ``(_a + _b i) / _d`` in lowest terms with ``_d > 0``.
    Each part is an ``int`` or a ``Fraction``; any other type, ``bool``
    included, is a ``TypeError``, as a float or a string is no exact value.
    """

    __slots__ = ("_a", "_b", "_d")

    # a scalar is the amplitude free of symbols
    has_symbols = False

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        for name, part in (("re", re), ("im", im)):
            if not isinstance(part, Rational) or type(part) is bool:
                raise TypeError(f"{name} must be int or Fraction, not {type(part).__name__}")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # both parts are already reduced, so the lcm leaves no common factor
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def inverse(self) -> GaussianRational:
        a, b = self._a, self._b
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return _reduced(self._d * a, -self._d * b, n)

    def __add__(self, other: object) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return self + -w

    def __rsub__(self, other: object) -> GaussianRational:
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return w + -self

    def __mul__(self, other: object) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        re = a1 * a2 - b1 * b2
        im = a1 * b2 + b1 * a2
        return _reduced(re, im, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GaussianRational:
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return self * w.inverse()

    def __neg__(self) -> GaussianRational:
        if self is ONE:
            return MINUS_ONE
        if self is MINUS_ONE:
            return ONE
        return _gr(-self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # a real value equals an int or a Fraction, so it hashes as one
        # (hash(Fraction(n)) == hash(n)); a complex value as its parts
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return rat_str(a, d)
        if not a:
            # lowest terms: with a == 0, gcd(b, d) == 1
            if d == 1:
                if b == 1:
                    return "i"
                if b == -1:
                    return "-i"
                if b > 0:
                    return f"{b}i"
            return f"({rat_str(b, d)})i"
        return f"({rat_str(a, d)})+({rat_str(b, d)})i"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple already in lowest terms."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Bring ``(a + bi) / d`` with ``d > 0`` to lowest terms with one gcd.

    ``d`` goes first: ``math.gcd`` stops computing once its running value is
    1, so for ``d == 1`` it only checks that ``a`` and ``b`` are ints."""
    g = gcd(d, a, b)
    if g == 1:
        return _gr(a, b, d)
    return _gr(a // g, b // g, d // g)


def _coerce(x: object) -> GaussianRational | None:
    """``x`` as a scalar, the shared ``ONE`` or ``MINUS_ONE`` for 1 or -1;
    None for a value of another type."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, Rational) and type(x) is not bool:
        return ONE if x == 1 else MINUS_ONE if x == -1 else GaussianRational(x)
    return None


ZERO = GaussianRational()
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


# A monomial is the sorted tuple of symbol names it contains, with repetition.
Monomial = tuple[str, ...]


class SymbolicAmplitude:
    """Polynomial over formal symbols with Gaussian-rational coefficients,
    of degree 1 or more.

    Canonical form: monomials are sorted name tuples, zero coefficients are
    dropped, and terms iterate in lexicographic monomial order.  Immutable;
    ``_text`` caches the rendering.  There is no public constructor: build
    values with ``amp`` and arithmetic.  A negation holds its operand in
    ``_neg``, so ``-(-a) is a``; the link runs one way, so it forms no
    reference cycle.
    """

    __slots__ = ("_terms", "_text", "_neg")

    has_symbols = True

    def __new__(cls, *args: object, **kwargs: object) -> SymbolicAmplitude:
        raise TypeError("SymbolicAmplitude has no public constructor; use amp() and arithmetic")

    @classmethod
    def _canonical(cls, terms: dict[Monomial, GaussianRational]) -> SymbolicAmplitude:
        """Wrap terms whose monomials are sorted tuples, at least one of them
        nonempty, and whose coefficients are nonzero, putting them in
        monomial order.  For results built from canonical operands."""
        return cls._wrap(dict(sorted(terms.items())))

    @classmethod
    def _wrap(cls, terms: dict[Monomial, GaussianRational]) -> SymbolicAmplitude:
        """Wrap terms ``_canonical`` accepts that are already in monomial order."""
        a = object.__new__(cls)
        a._terms, a._text, a._neg = terms, None, None
        return a

    def items(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Iterable[str]) -> GaussianRational:
        return self._terms.get(tuple(sorted(mono)), ZERO)

    def degree(self) -> int:
        """The largest total degree of a monomial, at least 1."""
        return max(map(len, self._terms))

    def __add__(self, other: object) -> Amplitude:
        if type(other) is SymbolicAmplitude:
            terms = other._terms
        else:
            g = _coerce(other)
            if g is None:
                return NotImplemented
            if not g:
                return self
            terms = {(): g}
        merged = dict(self._terms)
        for mono, coeff in terms.items():
            prev = merged.get(mono)
            if prev is None:
                merged[mono] = coeff
            else:
                acc = prev + coeff
                if acc:
                    merged[mono] = acc
                else:
                    del merged[mono]
        # the symbols cancelled when no monomial but () is left
        if len(merged) > 1 or merged and () not in merged:
            return SymbolicAmplitude._canonical(merged)
        return merged.get((), ZERO)

    __radd__ = __add__

    def __sub__(self, other: object) -> Amplitude:
        if type(other) is not SymbolicAmplitude:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other: object) -> Amplitude:
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return -self + w

    def __mul__(self, other: object) -> Amplitude:
        if type(other) is not SymbolicAmplitude:
            g = _coerce(other)
            if g is None:
                return NotImplemented
            if not g:
                return ZERO
            # scaling keeps each monomial in order and, with no zero divisors, each term
            return SymbolicAmplitude._wrap({m: c * g for m, c in self._terms.items()})
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = tuple(sorted(m1 + m2))
                prev = out.get(key)
                if prev is None:
                    # a product of nonzero Gaussian rationals is nonzero
                    out[key] = c1 * c2
                else:
                    acc = prev + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        # with no zero divisors, a product of two polynomials of degree >= 1
        # has degree >= 2, so it keeps a symbol
        return SymbolicAmplitude._canonical(out)

    __rmul__ = __mul__

    def __neg__(self) -> SymbolicAmplitude:
        if self._neg is not None:  # self is a negation, and _neg its operand
            return self._neg
        # negation keeps the monomial order, so the terms need no sort
        neg = SymbolicAmplitude._wrap({m: -c for m, c in self._terms.items()})
        neg._neg = self
        return neg

    def __len__(self) -> int:
        """The number of terms, at least 1."""
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        # a scalar has no symbols, so it never equals a SymbolicAmplitude
        if type(other) is not SymbolicAmplitude:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-adjacent container; structural eq only

    def __str__(self) -> str:
        if self._text is None:
            self._text = join_terms([scaled_str(c, _mono_str(m), "*") if m else str(c)
                                     for m, c in self._terms.items()])
        return self._text

    def __repr__(self) -> str:
        return f"SymbolicAmplitude({self})"


Amplitude = GaussianRational | SymbolicAmplitude


def amp(value: object) -> Amplitude:
    """A symbol name as its ``SymbolicAmplitude``; an int, Fraction or
    Gaussian rational as a ``GaussianRational``; an amplitude as itself.

    A name is what the DSL reads back: an ASCII identifier other than ``i``,
    optionally followed by one ``~``.
    """
    if isinstance(value, str):
        base = value.removesuffix("~")
        if not (base.isascii() and base.isidentifier()) or base == "i":
            raise ValueError(f"invalid symbol name {value!r}")
        return SymbolicAmplitude._canonical({(value,): ONE})
    if isinstance(value, SymbolicAmplitude):
        return value
    g = _coerce(value)
    if g is None:
        raise TypeError(f"cannot coerce {value!r} to an amplitude")
    return g


def _mono_str(mono: Monomial) -> str:
    if len(set(mono)) == len(mono):  # no name repeats, so no powers
        return "*".join(mono)
    parts = []
    for name, run in groupby(mono):
        k = len(tuple(run))
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def scaled_str(coeff: Amplitude, body: str, sep: str = "") -> str:
    """``body`` times ``coeff``: bare for 1, ``-body`` for -1, else ``(coeff)`` sep body.

    An integer coefficient is read from its numerator; any other one never
    renders as ``1`` or ``-1``.
    """
    if type(coeff) is GaussianRational and coeff._d == 1 and not coeff._b:
        n = coeff._a
        if n == 1:
            return body
        if n == -1:
            return "-" + body
        return f"({_int_str(n)}){sep}{body}"
    return f"({coeff}){sep}{body}"


def join_terms(parts: list[str]) -> str:
    """Join term renderings with sign folding: a + b, a - b.

    No term's text holds `` + -``: a coefficient's own terms were folded
    when it was rendered, and scalars, bits and symbol names (identifiers)
    hold no blanks.  So folding after one join touches only the joints.
    """
    return " + ".join(parts).replace(" + -", " - ") if parts else "0"
