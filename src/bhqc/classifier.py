"""Exact SLOCC classification and the black-hole attribute mapping.

Classes for three qubits: NULL, SEPARABLE (A-B-C), BISEPARABLE (A-BC,
B-CA, or C-AB), W, and GHZ, decided exactly from single-party flattening
ranks and the 2x2x2 hyperdeterminant.  Two-qubit states classify as NULL,
SEPARABLE, or ENTANGLED.  Everything except the display values (3-tangle,
entropy) is exact rational arithmetic; the entropy is a Decimal when it is
too large for a float.

The classifier works on the state scaled by the lcm of its denominators, a
vector of Gaussian integers whose products need no gcd: flattening ranks do
not change under rescaling, and the hyperdeterminant is homogeneous of
degree 4, so the state's Det is the scaled one over ``scale**4``.
"""

from __future__ import annotations

import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from .scalars import GaussianRational, ZERO, _reduced, rat_str
from .states import Ket


GHZ_BRANE_NOTE = "four D3-branes intersecting over a string"
COSET_CHAIN = "SL(2,C)×SL(2,C)×SL(2,C) → SL(2,C)×SL(4,C) → SL(6,C)"

_PARTIES = ("A", "B", "C")
_BIPARTITION = {"A": "A-BC", "B": "B-CA", "C": "C-AB"}

# The black-hole/qubit dictionary: SLOCC class -> (FTS rank, preserved SUSY
# fraction, black-hole size).  A biseparable state's rank "2" gets the
# letter of its separated party: 2a, 2b or 2c.
_DICTIONARY = {
    "NULL": ("0", None, None),
    "SEPARABLE": ("1", "1/2", "SMALL"),
    "BISEPARABLE": ("2", "1/4", "SMALL"),
    "W": ("3", "1/8", "SMALL"),
    "GHZ": ("4", "1/8-or-broken", "LARGE"),
    "ENTANGLED": (None, None, None),
}

SUSY_PHRASE = {
    "1/2": "1/2 preserved",
    "1/4": "1/4 preserved",
    "1/8": "1/8 preserved",
    "1/8-or-broken": "1/8 preserved or completely broken",
}

def _scalar_amplitudes(state: Ket) -> tuple[list[GaussianRational], int]:
    """The amplitude vector times ``scale``, the lcm of its denominators, and
    ``scale``: every entry of the vector is a Gaussian integer."""
    if state.has_symbols:
        raise ValueError("symbolic amplitudes are not classifiable")
    scale = math.lcm(*(z._d for z in state.terms.values()))
    vec = [ZERO] * (1 << state.n_qubits)
    for bits, z in state.terms.items():
        k = scale // z._d
        vec[int(bits, 2)] = GaussianRational(z._a * k, z._b * k)
    return vec, scale


def _party_rows(vec: list[GaussianRational], n: int,
                party: int) -> tuple[list[GaussianRational], list[GaussianRational]]:
    """2 x 2^(n-1) flattening of the amplitude tensor along one party."""
    shift = n - 1 - party
    rows: tuple[list, list] = ([], [])
    for idx, value in enumerate(vec):
        rows[(idx >> shift) & 1].append(value)
    return rows


def _rank_2xm(row0: list[GaussianRational], row1: list[GaussianRational]) -> int:
    """Exact rank of the 2 x m matrix with rows ``row0`` and ``row1``."""
    for j, p in enumerate(row0):
        if p:
            break
    else:
        return 1 if any(row1) else 0
    # rank 1 iff row1 is a multiple of row0: every minor through the pivot
    # column j vanishes (left of j, where row0 is zero, that means row1 is)
    q = row1[j]
    if any(row1[:j]):
        return 2
    for x, y in zip(row0[j + 1:], row1[j + 1:]):
        if p * y != q * x:
            return 2
    return 1


def _ranks(vec: list[GaussianRational]) -> tuple[int, int, int]:
    return tuple(_rank_2xm(*_party_rows(vec, 3, p)) for p in range(3))  # type: ignore[return-value]


def _hyperdet(a: list[GaussianRational]) -> GaussianRational:
    sq = (a[0b000] * a[0b000] * a[0b111] * a[0b111]
          + a[0b001] * a[0b001] * a[0b110] * a[0b110]
          + a[0b010] * a[0b010] * a[0b101] * a[0b101]
          + a[0b100] * a[0b100] * a[0b011] * a[0b011])
    pairs = (a[0b000] * a[0b001] * a[0b110] * a[0b111]
             + a[0b000] * a[0b010] * a[0b101] * a[0b111]
             + a[0b000] * a[0b100] * a[0b011] * a[0b111]
             + a[0b001] * a[0b010] * a[0b101] * a[0b110]
             + a[0b001] * a[0b100] * a[0b011] * a[0b110]
             + a[0b010] * a[0b100] * a[0b011] * a[0b101])
    quads = (a[0b000] * a[0b011] * a[0b101] * a[0b110]
             + a[0b001] * a[0b010] * a[0b100] * a[0b111])
    return sq - 2 * pairs + 4 * quads


class EntanglementReport:
    __slots__ = ("n_qubits", "flattening_ranks", "slocc_class", "separated_party",
                 "hyperdeterminant", "three_tangle_exact", "three_tangle", "fts_rank",
                 "susy_fraction", "size_class", "attractor", "brane_note", "entropy_display")

    def __init__(self, n_qubits: int, flattening_ranks: tuple[int, ...],
                 slocc_class: str, separated_party: str | None,
                 hyperdeterminant: GaussianRational | None,
                 three_tangle_exact: Fraction | None, three_tangle: float | Decimal | None,
                 entropy_display: float | Decimal | None) -> None:
        self.n_qubits = n_qubits
        self.flattening_ranks = flattening_ranks
        self.slocc_class = slocc_class          # NULL/SEPARABLE/BISEPARABLE/W/GHZ/ENTANGLED
        self.separated_party = separated_party
        self.hyperdeterminant = hyperdeterminant
        self.three_tangle_exact = three_tangle_exact
        self.three_tangle = three_tangle
        self.entropy_display = entropy_display
        fts, self.susy_fraction, self.size_class = _DICTIONARY[slocc_class]
        self.fts_rank = fts + separated_party.lower() if separated_party else fts
        self.attractor = slocc_class == "GHZ"
        self.brane_note = GHZ_BRANE_NOTE if slocc_class == "GHZ" else None

    @property
    def label(self) -> str:
        if self.slocc_class == "SEPARABLE" and self.n_qubits == 3:
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
            "size": None if self.size_class is None else self.size_class.lower(),
            "attractor": self.attractor,
            "brane_note": self.brane_note,
            "entropy": _display_json(self.entropy_display),
        }


def _display_json(value: float | Decimal | None) -> float | str | None:
    if isinstance(value, Decimal):
        return f"{value:.12g}"  # outside the float range: keep the text
    return None if value is None else float(f"{value:.12g}")


def classify(state: Ket) -> EntanglementReport:
    """Full report for a symbol-free 2- or 3-qubit ket."""
    n = state.n_qubits
    if n not in (2, 3):
        raise ValueError("classification covers 2- and 3-qubit states only")
    vec, scale = _scalar_amplitudes(state)
    if n == 2:
        return _classify_two(vec)
    return _classify_three(vec, scale)


def _classify_two(vec: list[GaussianRational]) -> EntanglementReport:
    # a 2x2 matrix has rank 2 exactly when its determinant is nonzero
    rank = _rank_2xm(vec[:2], vec[2:])
    slocc = ("NULL", "SEPARABLE", "ENTANGLED")[rank]
    return EntanglementReport(
        n_qubits=2, flattening_ranks=(rank, rank), slocc_class=slocc,
        separated_party=None, hyperdeterminant=None, three_tangle_exact=None,
        three_tangle=None, entropy_display=None)


def _classify_three(vec: list[GaussianRational], scale: int) -> EntanglementReport:
    ranks = _ranks(vec)
    det = _hyperdet(vec)  # of the scaled state, a Gaussian integer
    abs_sq = det._a * det._a + det._b * det._b
    party = None
    if ranks == (0, 0, 0):
        slocc = "NULL"
    elif ranks == (1, 1, 1):
        slocc = "SEPARABLE"
    elif ranks.count(1) == 1:
        slocc, party = "BISEPARABLE", _PARTIES[ranks.index(1)]
    elif ranks == (2, 2, 2):
        slocc = "GHZ" if det else "W"
    else:  # a rank pattern like (1, 1, 2) cannot occur for a valid tensor
        raise AssertionError(f"impossible flattening ranks {ranks}")

    # the squared normalized 3-tangle 16|Det|^2 / <x|x>^4, invariant under
    # rescaling, and its display value tau3 = 4|Det| of the normalized state
    tangle_exact = tangle = None
    norm_sq = sum(z._a * z._a + z._b * z._b for z in vec)  # <x|x> of the scaled state
    if norm_sq:
        tangle_exact = Fraction(16 * abs_sq, norm_sq ** 4)
        tangle = _display_root(tangle_exact, 2)
    return EntanglementReport(
        n_qubits=3, flattening_ranks=ranks, slocc_class=slocc,
        separated_party=party, hyperdeterminant=_reduced(det._a, det._b, scale ** 4),
        three_tangle_exact=tangle_exact, three_tangle=tangle,
        entropy_display=_entropy(Fraction(abs_sq, scale ** 8)))


def _entropy(det_sq: Fraction) -> float | Decimal:
    """Display value pi * |Det|^(1/2) from the exact |Det|^2."""
    return _display_root(det_sq, 4, math.pi)


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
    ``demo --json`` prints them: ``susy``, ``size`` and ``rank`` texts, and
    ``coset``, the coset chain when the FTS rank rose, else None."""
    b, a = before, after
    if b.susy_fraction == a.susy_fraction:
        susy = "unchanged"
    else:
        susy = (f"{b.susy_fraction or 'none'} → "
                f"{SUSY_PHRASE.get(a.susy_fraction, 'none')}")
    if b.size_class == a.size_class:
        size = "unchanged"
    else:
        after_size = (a.size_class or "none").lower()
        if a.attractor:
            after_size += " (attractor)"
        size = f"{(b.size_class or 'none').lower()} → {after_size}"
    if b.fts_rank == a.fts_rank:
        rank = "unchanged"
    else:
        rank = f"{b.fts_rank or 'none'} → {a.fts_rank or 'none'}"
    rb, ra = b.fts_rank, a.fts_rank
    increased = rb is not None and ra is not None and ra[0] > rb[0]  # "2a" has level 2
    return {"susy": susy, "size": size, "rank": rank,
            "coset": COSET_CHAIN if increased else None}
