"""Exact SLOCC classification and the black-hole attribute mapping.

Classes for three qubits: NULL, SEPARABLE (A-B-C), BISEPARABLE (A-BC,
B-CA, or C-AB), W, and GHZ, decided exactly from single-party flattening
ranks and the 2x2x2 hyperdeterminant.  Two-qubit states classify as NULL,
SEPARABLE, or ENTANGLED.  The report stores exact invariants only and
derives its display values from them: tau3 from the exact 3-tangle and the
entropy from |Det|^2, each a Decimal where a float would not hold it.  Every
field the class decides is its row of the black-hole/qubit dictionary.

The classifier works on the state scaled by the lcm of its denominators: one
list of Gaussian integers as ``(re, im)`` int pairs, since ranks do not change
under rescaling and Det, of degree 4, is the scaled one over ``scale**4``.
Each party cuts it into two 2x2 slices M0, M1, the rows of its flattening, and
Det is the discriminant B^2 - 4AC of det(s*M0 + t*M1) = A s^2 + B st + C t^2,
the same along every party (Miyake 2003).  Each complex product is written out
on ints, so no scalar is built and no gcd taken until the reported Det.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from .scalars import GaussianRational, _reduced, rat_str
from .states import Ket


COSET_CHAIN = "SL(2,C)×SL(2,C)×SL(2,C) → SL(2,C)×SL(4,C) → SL(6,C)"

_BIPARTITION = {"A": "A-BC", "B": "B-CA", "C": "C-AB"}

# The black-hole/qubit dictionary, one row per SLOCC class: FTS rank, preserved
# SUSY fraction, the SUSY text ``classify`` prints, black-hole size and brane
# note.  A biseparable state's rank "2" gets the letter of its separated party:
# 2a, 2b or 2c.  The attractor flag is set exactly for a large black hole.
_DICTIONARY = {
    "NULL": ("0", None, None, None, None),
    "SEPARABLE": ("1", "1/2", "1/2 preserved", "SMALL", None),
    "BISEPARABLE": ("2", "1/4", "1/4 preserved", "SMALL", None),
    "W": ("3", "1/8", "1/8 preserved", "SMALL", None),
    "GHZ": ("4", "1/8-or-broken", "1/8 preserved or completely broken", "LARGE",
            "four D3-branes intersecting over a string"),
    "ENTANGLED": (None, None, None, None, None),
}


def _scalar_amplitudes(state: Ket) -> tuple[list[tuple[int, int]], int]:
    """The amplitude vector times ``scale``, the lcm of its denominators, as
    ``(re, im)`` int pairs, and ``scale``."""
    if state.has_symbols:
        raise ValueError("symbolic amplitudes are not classifiable")
    scale = math.lcm(*(z._d for z in state.terms.values()))
    a = [(0, 0)] * (1 << state.n_qubits)
    for bits, z in state.terms.items():
        k = scale // z._d
        a[int(bits, 2)] = z._a * k, z._b * k
    return a, scale


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _slices(a: list[tuple[int, int]]) -> tuple[tuple[list, list], ...]:
    """``(m0, m1)`` for each party A, B, C (halves, pairs of quarters, parity):
    the rows of its flattening, and also its two 2x2 slices in row-major order."""
    return (a[:4], a[4:]), (a[:2] + a[4:6], a[2:4] + a[6:]), (a[::2], a[1::2])


def _rank_2xm(u: list[tuple[int, int]], v: list[tuple[int, int]]) -> int:
    """Exact rank of the 2 x m Gaussian-integer matrix with rows u and v."""
    j = next((j for j, x in enumerate(u) if x != (0, 0)), None)
    if j is None:
        return 1 if any(y != (0, 0) for y in v) else 0
    # rank 1 iff every minor through the pivot column j vanishes (left of j: v is 0)
    x, y = u[j], v[j]
    return 1 if all(_mul(x, w) == _mul(y, z) for z, w in zip(u, v)) else 2


def _det2(m: list[tuple[int, int]]) -> tuple[int, int]:
    p, q = _mul(m[0], m[3]), _mul(m[1], m[2])
    return p[0] - q[0], p[1] - q[1]


def _pencil(m0: list[tuple[int, int]], m1: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """``(A, B, C)`` with det(s*M0 + t*M1) = A s^2 + B st + C t^2: A = det M0,
    C = det M1, and B from det(M0 + M1) = A + B + C."""
    a, c = _det2(m0), _det2(m1)
    s = _det2([(x + y, xi + yi) for (x, xi), (y, yi) in zip(m0, m1)])
    return a, (s[0] - a[0] - c[0], s[1] - a[1] - c[1]), c


class EntanglementReport:
    """A classification, built from five exact invariants: the flattening
    ranks, the SLOCC class, a biseparable state's separated party, Det and the
    squared 3-tangle (None for two qubits; the tangle also for the zero ket).
    The display values tau3 and entropy, and the black-hole fields, derive here."""

    __slots__ = ("flattening_ranks", "slocc_class", "separated_party", "hyperdeterminant",
                 "three_tangle_exact", "three_tangle", "fts_rank", "susy_fraction", "susy_phrase",
                 "size_class", "attractor", "brane_note", "entropy_display")

    def __init__(self, flattening_ranks: tuple[int, ...], slocc_class: str,
                 separated_party: str | None, hyperdeterminant: GaussianRational | None,
                 three_tangle_exact: Fraction | None) -> None:
        self.flattening_ranks = flattening_ranks
        self.slocc_class = slocc_class          # NULL/SEPARABLE/BISEPARABLE/W/GHZ/ENTANGLED
        self.separated_party = separated_party
        self.hyperdeterminant = det = hyperdeterminant
        self.three_tangle_exact = three_tangle_exact
        self.three_tangle = (None if three_tangle_exact is None
                             else _display_root(three_tangle_exact, 2))
        self.entropy_display = (None if det is None else _display_root(
            Fraction(det._a * det._a + det._b * det._b, det._d * det._d), 4, math.pi))
        (fts, self.susy_fraction, self.susy_phrase, self.size_class,
         self.brane_note) = _DICTIONARY[slocc_class]
        self.fts_rank = fts + separated_party.lower() if separated_party else fts
        self.attractor = self.size_class == "LARGE"

    @property
    def label(self) -> str:
        if self.slocc_class == "SEPARABLE" and len(self.flattening_ranks) == 3:
            return "SEPARABLE(A-B-C)"
        if self.slocc_class == "BISEPARABLE":
            return f"BISEPARABLE({_BIPARTITION[self.separated_party]})"
        return self.slocc_class

    def to_json(self) -> dict:
        det = self.hyperdeterminant
        return {
            "class": self.label,
            "ranks": list(self.flattening_ranks),
            "fts_rank": self.fts_rank,
            "det": None if det is None else {"re": rat_str(det._a, det._d),
                                             "im": rat_str(det._b, det._d)},
            "tau3": _display_json(self.three_tangle),
            "susy": self.susy_fraction,
            "size": self.size_class and self.size_class.lower(),
            "attractor": self.attractor,
            "brane_note": self.brane_note,
            "entropy": _display_json(self.entropy_display),
        }

    def lines(self) -> list[str]:
        """The report as ``classify`` prints it, one ``key: value`` text a line;
        a field with no value is left out."""
        tau3, entropy = (v if v is None else f"{v:.12g}"
                         for v in (self.three_tangle, self.entropy_display))
        fields = (("class", self.label), ("ranks", ",".join(map(str, self.flattening_ranks))),
                  ("fts_rank", self.fts_rank), ("det", self.hyperdeterminant),
                  ("tau3", tau3), ("susy", self.susy_phrase),
                  ("size", self.size_class and self.size_class.lower()),
                  ("attractor", "true" if self.attractor else "false"),
                  ("brane", self.brane_note), ("entropy", entropy))
        return [f"{key}: {value}" for key, value in fields if value is not None]


def _display_json(value: float | Decimal | None) -> float | str | None:
    if isinstance(value, Decimal):
        return f"{value:.12g}"  # outside the float range: keep the text
    return None if value is None else float(f"{value:.12g}")


def classify(state: Ket) -> EntanglementReport:
    """Full report for a symbol-free 2- or 3-qubit ket."""
    n = state.n_qubits
    if n not in (2, 3):
        raise ValueError("classification covers 2- and 3-qubit states only")
    a, scale = _scalar_amplitudes(state)
    if n == 2:  # a 2x2 matrix has rank 2 exactly when its determinant is nonzero
        rank = _rank_2xm(a[:2], a[2:])
        return EntanglementReport((rank, rank), ("NULL", "SEPARABLE", "ENTANGLED")[rank],
                                  None, None, None)
    slices = _slices(a)
    ranks = tuple(_rank_2xm(m0, m1) for m0, m1 in slices)
    # Det of the scaled state, a Gaussian integer, from A's pencil
    A, B, C = _pencil(*slices[0])
    b2, ac = _mul(B, B), _mul(A, C)
    dr, di = b2[0] - 4 * ac[0], b2[1] - 4 * ac[1]
    abs_sq = dr * dr + di * di
    party = None
    if ranks == (0, 0, 0):
        slocc = "NULL"
    elif ranks == (1, 1, 1):
        slocc = "SEPARABLE"
    elif ranks.count(1) == 1:
        slocc, party = "BISEPARABLE", "ABC"[ranks.index(1)]
    elif ranks == (2, 2, 2):
        slocc = "GHZ" if abs_sq else "W"
    else:  # a rank pattern like (1, 1, 2) cannot occur for a valid tensor
        raise AssertionError(f"impossible flattening ranks {ranks}")
    # the squared normalized 3-tangle 16|Det|^2 / <x|x>^4, invariant under
    # rescaling; its display value is tau3 = 4|Det| of the normalized state
    norm_sq = sum(x * x + y * y for x, y in a)  # <x|x> of the scaled state
    tangle = Fraction(16 * abs_sq, norm_sq ** 4) if norm_sq else None
    return EntanglementReport(ranks, slocc, party, _reduced(dr, di, scale ** 4), tangle)


def _display_root(x: Fraction, k: int, factor: float = 1.0) -> float | Decimal:
    """``factor * x^(1/k)`` for display, k = 2 or 4, from an exact x >= 0.

    A float while x is zero or converts to a normal float; otherwise a
    Decimal rounded to the 12 significant digits that are shown, since a
    float would overflow or lose the digits to underflow.
    """
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not x or sys.float_info.min <= f < math.inf:
        # the expressions these values have always been printed from
        return factor * (math.sqrt(f) if k == 2 else f ** 0.25)
    # x ~ m * 2^e with a 128-bit m: turning the whole numerator into a
    # Decimal would take time quadratic in its digits
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length() - 128
    m = num // (den << e) if e >= 0 else (num << -e) // den
    with localcontext() as ctx:
        ctx.prec = 30
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        root = Decimal(m) * Decimal(2) ** e
        for _ in range(k.bit_length() - 1):
            root = root.sqrt()
        value = Decimal(factor) * root
        ctx.prec = 12
        return (+value).normalize()


def transition_report(before: EntanglementReport, after: EntanglementReport) -> dict:
    """Templated deltas between the classifications of two states, as
    ``demo --json`` prints them: ``susy``, ``size`` and ``rank`` read ``unchanged``
    or ``old → new`` (``none`` for a missing side; the new SUSY fraction as its
    phrase, a new attractor marked); ``coset`` is the coset chain when the FTS
    rank rose, else None."""
    b, a = before, after
    size_b, size_a = (r.size_class and r.size_class.lower() for r in (b, a))
    fields = {"susy": (b.susy_fraction, a.susy_fraction, a.susy_phrase),
              "size": (size_b, size_a, f"{size_a} (attractor)" if a.attractor else size_a),
              "rank": (b.fts_rank, a.fts_rank, a.fts_rank)}
    report = {key: "unchanged" if old == new else f"{old or 'none'} → {shown or 'none'}"
              for key, (old, new, shown) in fields.items()}
    rb, ra = b.fts_rank, a.fts_rank
    report["coset"] = COSET_CHAIN if rb and ra and ra[0] > rb[0] else None  # "2a": level 2
    return report
