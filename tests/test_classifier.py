import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhqc.classifier import (COSET_CHAIN, _display_root, _pencil, _rank_2xm,
                             _scalar_amplitudes, _slices, classify, transition_report)
from bhqc.operators import GATES, Operator, apply
from bhqc.scalars import GaussianRational, amp
from bhqc.states import Ket

from _exact import Q
from _kets import permute
from _oracle import _cayley_det, brute_classify

GHZ = Ket(3, {"000": 1, "111": 1})
W = Ket(3, {"001": 1, "010": 1, "100": 1})


def ket_from_vec(vec, n=3):
    return Ket(n, {format(i, f"0{n}b"): v for i, v in enumerate(vec) if v})


class TestFlatteningRanks:
    def test_ghz_is_full_rank_everywhere(self):
        assert classify(GHZ).flattening_ranks == (2, 2, 2)

    def test_product_state(self):
        assert classify(Ket.basis("000")).flattening_ranks == (1, 1, 1)

    def test_first_party_separated(self):
        state = Ket.basis("1").tensor(Ket(2, {"01": 1, "10": 1}))
        assert classify(state).flattening_ranks == (1, 2, 2)

    def test_zero_state(self):
        assert classify(Ket.zero(3)).flattening_ranks == (0, 0, 0)


class TestHyperdeterminant:
    def test_ghz(self):
        assert classify(GHZ).hyperdeterminant == GaussianRational(1)

    def test_w(self):
        assert classify(W).hyperdeterminant == GaussianRational(0)

    def test_single_amplitude(self):
        assert classify(Ket.basis("000")).hyperdeterminant == GaussianRational(0)

    def test_generic_value(self):
        # |000> + |011> + |101> + |110> has Det = 4*1 - 0 ... check exactly
        state = Ket(3, {"000": 1, "011": 1, "101": 1, "110": 1})
        assert classify(state).hyperdeterminant == GaussianRational(4)


class TestThreeTangle:
    def test_ghz(self):
        report = classify(GHZ)
        assert report.three_tangle_exact == Fraction(1)
        assert report.three_tangle == 1.0

    def test_w(self):
        report = classify(W)
        assert report.three_tangle_exact == Fraction(0)
        assert report.three_tangle == 0.0

    def test_scale_invariance(self):
        assert classify(3 * GHZ).three_tangle_exact == Fraction(1)
        assert classify(GaussianRational(0, 1) * GHZ).three_tangle_exact == Fraction(1)

    def test_zero_state_rejected(self):
        # the 3-tangle of the zero state is undefined: the report has none
        report = classify(Ket.zero(3))
        assert report.three_tangle_exact is None
        assert report.three_tangle is None


class TestClassifyThreeQubits:
    def test_ghz_report(self):
        report = classify(GHZ)
        assert report.slocc_class == "GHZ"
        assert report.label == "GHZ"
        assert report.fts_rank == "4"
        assert report.size_class == "LARGE"
        assert report.attractor is True
        assert report.susy_fraction == "1/8-or-broken"
        assert report.brane_note == "four D3-branes intersecting over a string"
        assert report.entropy_display == pytest.approx(3.141592653589793)

    def test_biseparable_first_party(self):
        report = classify(Ket(3, {"101": 1, "110": 1}))
        assert report.slocc_class == "BISEPARABLE"
        assert report.label == "BISEPARABLE(A-BC)"
        assert report.fts_rank == "2a"
        assert report.susy_fraction == "1/4"
        assert report.size_class == "SMALL"
        assert report.attractor is False

    def test_biseparable_labels_by_separated_party(self):
        b = classify(Ket(3, {"010": 1, "111": 1}))   # B factors out
        assert (b.label, b.fts_rank) == ("BISEPARABLE(B-CA)", "2b")
        c = classify(Ket(2, {"00": 1, "11": 1}).tensor(Ket.basis("0")))
        assert (c.label, c.fts_rank) == ("BISEPARABLE(C-AB)", "2c")

    def test_w_report(self):
        report = classify(W)
        assert report.slocc_class == "W"
        assert report.fts_rank == "3"
        assert report.susy_fraction == "1/8"
        assert report.size_class == "SMALL"
        assert report.hyperdeterminant == GaussianRational(0)

    def test_separable_report(self):
        report = classify(Ket.basis("000"))
        assert report.label == "SEPARABLE(A-B-C)"
        assert report.fts_rank == "1"
        assert report.susy_fraction == "1/2"

    def test_null_report(self):
        report = classify(Ket.zero(3))
        assert report.slocc_class == "NULL"
        assert report.fts_rank == "0"
        assert report.three_tangle is None

    def test_symbolic_rejected(self):
        with pytest.raises(ValueError, match="symbolic"):
            classify(Ket(3, {"000": amp("alpha")}))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="2- and 3-qubit"):
            classify(Ket.basis("0"))
        with pytest.raises(ValueError, match="2- and 3-qubit"):
            classify(Ket.basis("0000"))


class TestClassifyTwoQubits:
    def test_separable(self):
        report = classify(Ket.basis("00"))
        assert report.slocc_class == "SEPARABLE"
        assert report.fts_rank == "1"
        assert report.susy_fraction == "1/2"
        assert report.hyperdeterminant is None

    def test_entangled(self):
        report = classify(Ket(2, {"00": 1, "11": 1}))
        assert report.slocc_class == "ENTANGLED"
        assert report.flattening_ranks == (2, 2)
        assert report.attractor is False

    def test_null(self):
        assert classify(Ket.zero(2)).slocc_class == "NULL"


class TestTransitions:
    def test_separable_to_biseparable(self):
        after = Ket(3, {"101": 1, "110": 1})
        t = transition_report(classify(Ket.basis("000")), classify(after))
        assert t == {"susy": "1/2 → 1/4 preserved", "size": "unchanged", "rank": "1 → 2a",
                     "coset": COSET_CHAIN}

    def test_small_to_large(self):
        before = Ket(2, {"00": 1, "11": 1}).tensor(Ket.basis("0"))
        t = transition_report(classify(before), classify(GHZ))
        assert t["size"] == "small → large (attractor)"
        assert t["rank"] == "2c → 4"
        assert t["susy"] == "1/4 → 1/8 preserved or completely broken"
        assert t["coset"] == COSET_CHAIN

    def test_unchanged(self):
        t = transition_report(classify(GHZ), classify(GHZ))
        assert t == {"susy": "unchanged", "size": "unchanged", "rank": "unchanged",
                     "coset": None}

    def test_coset_chain_text(self):
        assert COSET_CHAIN.startswith("SL(2,C)×SL(2,C)×SL(2,C)")


class TestInvarianceSpotChecks:
    def test_permutation_covariance(self):
        state = Ket(3, {"000": 2, "011": 1, "101": -1})
        det = classify(state).hyperdeterminant
        base = classify(state)
        for perm in permutations(range(3)):
            permuted = permute(state, perm)
            assert classify(permuted).hyperdeterminant == det
            report = classify(permuted)
            assert report.slocc_class == base.slocc_class

    def test_permutation_moves_the_separated_party_label(self):
        # A-separated input: qubit order[q] = old party, so the separated
        # party of the permuted state sits at perm.index(old)
        state = Ket.basis("1").tensor(Ket(2, {"01": 1, "10": 1}))
        assert classify(state).separated_party == "A"
        for perm in permutations(range(3)):
            report = classify(permute(state, perm))
            assert report.separated_party == "ABC"[perm.index(0)]

    def test_homogeneity(self):
        state = Ket(3, {"000": 1, "011": 2, "111": 1})
        det = classify(state).hyperdeterminant
        for c in (GaussianRational(3), GaussianRational(0, 1),
                  GaussianRational(Fraction(-2, 3), Fraction(1, 5))):
            assert classify(c * state).hyperdeterminant == c * c * c * c * det

    def test_single_qubit_not_and_star_preserve_the_class(self):
        states = [GHZ, W, Ket(3, {"101": 1, "110": 1}), Ket.basis("000"),
                  Ket(3, {"000": 1, "011": 2, "100": 1, "111": 2})]
        for state in states:
            base = classify(state)
            for gate in ("NOT", "STAR"):
                for qubit in range(3):
                    moved = apply(GATES[gate], state, [qubit])
                    report = classify(moved)
                    assert report.slocc_class == base.slocc_class
                    assert report.fts_rank == base.fts_rank


class TestOracleAgreement:
    def test_random_small_states_agree_with_the_brute_force_oracle(self):
        rng = random.Random(20260810)
        for _ in range(300):
            vec = [rng.randint(-2, 2) for _ in range(8)]
            state = ket_from_vec([GaussianRational(v) for v in vec])
            report = classify(state)
            family, party = brute_classify(state)
            assert report.slocc_class == family
            assert report.separated_party == party

    def test_report_consistency_table(self):
        # the class, the rank profile, and the hyperdeterminant must satisfy
        # the defining table jointly
        rng = random.Random(99)
        for _ in range(200):
            vec = [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
                   for _ in range(8)]
            state = ket_from_vec(vec)
            r = classify(state)
            det = r.hyperdeterminant
            ranks = r.flattening_ranks
            if r.slocc_class == "GHZ":
                assert det and ranks == (2, 2, 2) and r.fts_rank == "4"
            elif r.slocc_class == "W":
                assert not det and ranks == (2, 2, 2) and r.fts_rank == "3"
            elif r.slocc_class == "BISEPARABLE":
                assert not det and ranks.count(1) == 1
                assert r.fts_rank in ("2a", "2b", "2c")
            elif r.slocc_class == "SEPARABLE":
                assert not det and ranks == (1, 1, 1) and r.fts_rank == "1"
            else:
                assert r.slocc_class == "NULL" and ranks == (0, 0, 0)


def test_entropy_past_the_decimal_default_exponent_range():
    # |Det|^2 = 10^1000004 overflows a float and the default Decimal Emax
    # (through classify, three_tangle_exact would take a gcd on million-digit ints)
    assert f"{_display_root(Fraction(10**1000004), 4, math.pi):.12g}" == "3.14159265359e+250001"
    assert (f"{_display_root(Fraction(16 * 10**1000004, 81), 4, math.pi):.12g}"
            == "2.09439510239e+250001")


def _pairwise_rank(row0, row1):
    """Rank of a 2 x m matrix from all of its 1x1 and 2x2 minors."""
    m = len(row0)
    if any(row0[j] * row1[k] != row0[k] * row1[j]
           for j in range(m) for k in range(j + 1, m)):
        return 2
    return 1 if any(row0) or any(row1) else 0


def _int_rows(*rows):
    """Each row as ``(re, im)`` int pairs, all scaled by the lcm of the
    denominators, which keeps the rank."""
    scale = math.lcm(*(x.denominator for row in rows for z in row for x in (z.re, z.im)))
    return [[(int(z.re * scale), int(z.im * scale)) for z in row] for row in rows]


_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entries = (st.sampled_from([0, 0, 0, 1, -1, 2]).map(GaussianRational)
            | st.builds(GaussianRational, _q, _q))
_Z, _1 = GaussianRational(0), GaussianRational(1)


@settings(max_examples=150)
@given(st.lists(st.tuples(_entries, _entries), min_size=1, max_size=8),
       st.none() | _entries)
@example([(_Z, _Z), (_1, _Z), (_Z, _1)], None)
@example([(_Z, _Z), (_Z, _1)], None)
@example([(_Z, GaussianRational(0, 1)), (_1, _Z)], None)  # only i left of row0's pivot
@example([(GaussianRational(0, 1), _Z), (_1, _Z)], GaussianRational(1, 1))  # complex ratio
def test_rank_2xm_matches_the_pairwise_minors(columns, scale):
    row0 = [x for x, _ in columns]
    # with a scale, row1 is a multiple of row0, so rank 1 is common
    row1 = [y for _, y in columns] if scale is None else [scale * x for x in row0]
    assert _rank_2xm(*_int_rows(row0, row1)) == _pairwise_rank(row0, row1)
    assert _rank_2xm(*_int_rows(row1, row0)) == _pairwise_rank(row1, row0)


_q9 = st.fractions(min_value=-2, max_value=2, max_denominator=9)
_entries9 = st.just(_Z) | st.builds(GaussianRational, _q9, _q9)
# as classify-mix draws them: ~20-bit numerators over 1..9, complex parts
_q20 = st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.integers(1, 9))
_entries20 = st.builds(GaussianRational, _q20, _q20)


def _product(u, chi, party, n):
    """The n-qubit vector u (x) chi, with u on ``party``: a separated party."""
    shift = n - 1 - party
    low = (1 << shift) - 1
    return [u[(k >> shift) & 1] * chi[(k >> 1) & ~low | k & low] for k in range(1 << n)]


def _vectors(n):
    entries = _entries9 | _entries20
    return (st.lists(entries, min_size=1 << n, max_size=1 << n)
            | st.builds(_product, st.lists(entries, min_size=2, max_size=2),
                        st.lists(entries, min_size=1 << (n - 1), max_size=1 << (n - 1)),
                        st.integers(0, n - 1), st.just(n)))


@settings(max_examples=300)
@given(st.sampled_from([2, 3]).flatmap(_vectors))
@example([_Z, GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3)), _Z,
          GaussianRational(0, Fraction(-1, 9)), _Z, _Z, _Z])  # W
@example([GaussianRational(Fraction(1, 6)), _Z, _Z, GaussianRational(Fraction(2, 9), 1),
          _Z, _Z, _Z, _Z])  # A-BC
@example([GaussianRational(Fraction(1, 6)), GaussianRational(0, Fraction(1, 3)),
          GaussianRational(0, Fraction(-1, 3)), GaussianRational(Fraction(2, 3))])  # separable
@example([_Z, _Z, _Z, _Z, GaussianRational(Fraction(1, 2)), _Z, _Z,
          GaussianRational(0, Fraction(1, 3))])  # A's slice M0 is zero
@example([GaussianRational(Fraction(2, 3), 1), _Z, _Z, _Z, _Z, _Z, _Z,
          GaussianRational(Fraction(2, 3), 1)])  # GHZ: both slices singular, Det is B^2
def test_classify_on_non_unit_denominators(vec):
    n = len(vec).bit_length() - 1
    state = ket_from_vec(vec, n)
    report = classify(state)
    assert (report.slocc_class, report.separated_party) == brute_classify(state)
    if n == 2:
        assert report.hyperdeterminant is report.three_tangle_exact is None
        assert report.three_tangle is report.entropy_display is None
        return
    det = report.hyperdeterminant
    want = _cayley_det([Q(z.re, z.im) for z in vec])
    assert Q(det.re, det.im) == want
    # the scaled state's Det is the discriminant of each party's pencil
    a, scale = _scalar_amplitudes(state)
    for m0, m1 in _slices(a):
        A, B, C = (Q(*x) for x in _pencil(m0, m1))
        assert B * B - 4 * A * C == want * scale ** 4
    det_sq = want.re ** 2 + want.im ** 2
    # the display values come from the oracle's exact values
    assert report.entropy_display == _display_root(det_sq, 4, math.pi)
    norm = sum(z.re ** 2 + z.im ** 2 for z in vec)  # <x|x> of the unscaled state
    if norm:
        tangle = 16 * det_sq / norm ** 4
        assert report.three_tangle_exact == tangle
        assert report.three_tangle == _display_root(tangle, 2)
    else:
        assert report.three_tangle_exact is report.three_tangle is None


# -- SLOCC covariance: a local map A on one party acts on Det as det(A)^2 ----

def _local(a, b, c, d):
    """The one-qubit operator [[a, b], [c, d]]: |0> -> a|0> + c|1>, |1> -> b|0> + d|1>."""
    return Operator(1, {"0": Ket(1, {"0": a, "1": c}), "1": Ket(1, {"0": b, "1": d})})


@settings(max_examples=120)
@given(st.sampled_from([2, 3]).flatmap(
           lambda n: st.tuples(st.just(n), st.lists(_entries, min_size=2 ** n, max_size=2 ** n),
                               st.integers(0, n - 1))),
       st.tuples(_entries, _entries, _entries, _entries))
@example((3, [_1, _Z, _Z, _Z, _Z, _Z, _Z, _1], 1), (_1, _1, _1, _1))  # GHZ to biseparable
@example((2, [_1, _Z, _Z, _1], 0), (_Z, _Z, _Z, _Z))                  # to the zero ket
def test_a_local_map_keeps_the_class_or_raises_no_rank(case, matrix):
    n, vec, party = case
    state = ket_from_vec(vec, n)
    moved = apply(_local(*matrix), state, [party])
    before, after = classify(state), classify(moved)
    a, b, c, d = matrix
    det = a * d - b * c
    if det:
        # invertible: the SLOCC orbit, its FTS rank and Det up to det(A)^2 are kept
        assert (after.label, after.fts_rank) == (before.label, before.fts_rank)
        assert after.flattening_ranks == before.flattening_ranks
        if n == 3:
            assert after.hyperdeterminant == det * det * before.hyperdeterminant
    else:
        assert all(r1 <= r0 for r0, r1 in zip(before.flattening_ranks, after.flattening_ranks))
    if not moved.terms:
        assert after.slocc_class == "NULL"
        assert after.flattening_ranks == (0,) * n
