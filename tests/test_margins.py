from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maxlot import (
    Agenda,
    LinearOrder,
    MarginMatrix,
    cycle_decompose,
    cycle_incidence,
    format_matrix,
    is_regular,
    is_strongly_regular,
    make_profile,
    margins,
    mcgarvey,
    mix,
    parse_matrix,
    permute,
    restrict,
)
from maxlot.linalg import integers
from maxlot.prng import SplitMix64

from bruteforce import margins_oracle, mcgarvey_oracle
from test_core import agendas, profiles

F = Fraction


def skew(agenda: Agenda, entries) -> MarginMatrix:
    n = len(agenda)
    rows = [[F(0)] * n for _ in range(n)]
    for x, y, v in entries:
        i, j = agenda.index(x), agenda.index(y)
        rows[i][j], rows[j][i] = F(v), -F(v)
    return MarginMatrix(agenda, tuple(tuple(r) for r in rows))


ABC = Agenda(("a", "b", "c"))
THIRD_CYCLE = skew(ABC, [("a", "b", F(1, 3)), ("b", "c", F(1, 3)), ("c", "a", F(1, 3))])
UNIT_CYCLE = skew(ABC, [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
ZERO3 = MarginMatrix(ABC, tuple(tuple(F(0) for _ in range(3)) for _ in range(3)))


class TestMarginMatrix:
    def test_fixture_margins(self, strict_winner_profile):
        m = margins(strict_winner_profile)
        assert m.entry("a", "b") == F(2, 3)
        assert m.entry("a", "c") == F(2, 3)
        assert m.entry("b", "c") == F(1, 3)
        assert m.entry("b", "a") == -F(2, 3)

    def test_mixture_cancels(self, agreeing_electorates):
        left, right = agreeing_electorates
        merged = mix([(left, F(1, 2)), (right, F(1, 2))])
        assert margins(merged).entry("a", "b") == 0

    def test_unanimous_pair(self):
        p = make_profile(Agenda(("a", "b")), [(LinearOrder(("a", "b")), 1)])
        assert margins(p).entry("a", "b") == 1

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            MarginMatrix(ABC, ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0))))
        with pytest.raises(ValueError):
            MarginMatrix(ABC, ((F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(0))))

    @given(profiles())
    def test_skew_and_bounded(self, profile):
        m = margins(profile)
        n = len(m.agenda)
        for i in range(n):
            for j in range(n):
                assert m.rows[i][j] == -m.rows[j][i]
                assert -1 <= m.rows[i][j] <= 1

    @given(profiles(min_size=3))
    def test_commutes_with_restrict(self, profile):
        keep = profile.agenda.ids[:2]
        assert margins(restrict(profile, keep)) == margins(profile).submatrix(keep)


@st.composite
def skew_rows(draw):
    """Random skew-symmetric rational rows over 1 to 5 alternatives."""
    n = draw(st.integers(1, 5))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(entries)
            rows[i][j], rows[j][i] = v, -v
    return Agenda(tuple("abcde"[:n])), tuple(tuple(r) for r in rows)


class TestIntegerNumerators:
    @given(skew_rows())
    def test_numerators_are_integers_of_rows(self, drawn):
        agenda, rows = drawn
        m = MarginMatrix(agenda, rows)
        num, scale = integers(rows)
        assert (m.num, m.scale) == (tuple(map(tuple, num)), scale)
        assert m.rows == rows

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_int_numerators_over_a_multiple_equal_fractions(self, k):
        m = MarginMatrix(ABC, ((0, k, -k), (-k, 0, k), (k, -k, 0)), 3 * k)
        assert m == THIRD_CYCLE and hash(m) == hash(THIRD_CYCLE)
        assert (m.num, m.scale) == (THIRD_CYCLE.num, 3)

    @given(profiles())
    def test_margins_equal_oracle_matrix(self, profile):
        assert margins(profile) == MarginMatrix(profile.agenda, margins_oracle(profile))

    @pytest.mark.parametrize("scale", [0, -1])
    def test_rejects_nonpositive_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            MarginMatrix(ABC, UNIT_CYCLE.num, scale)


@st.composite
def coprime_mixes(draw):
    """Mixes of three ballot-count profiles weighted 1/3, 2/7 and 8/21, so
    the weights carry denominators with different prime factors."""
    agenda = draw(agendas(2, 4))
    parts = []
    for coeff in (F(1, 3), F(2, 7), F(8, 21)):
        count = draw(st.integers(1, 5))
        orders = draw(st.lists(st.permutations(list(agenda.ids)), min_size=count, max_size=count))
        parts.append((make_profile(agenda, [(LinearOrder(o), 1) for o in orders]), coeff))
    return mix(parts)


class TestMarginsOracle:
    @given(coprime_mixes())
    def test_matches_pairwise_fractions(self, profile):
        assert margins(profile).rows == margins_oracle(profile)

    def test_fixed_coprime_mix(self):
        agenda = Agenda(("a", "b", "c"))

        def ballots(*rankings):
            return make_profile(agenda, [(LinearOrder(tuple(r)), 1) for r in rankings])

        profile = mix(
            [(ballots("abc", "acb"), F(1, 3)), (ballots("bca", "cab"), F(2, 7)), (ballots("cba"), F(8, 21))]
        )
        # the largest denominator, 21, is not a multiple of 6
        assert sorted(w.denominator for w in profile.weights.values()) == [6, 6, 7, 7, 21]
        assert margins(profile).rows == margins_oracle(profile)


class TestRegularity:
    def test_zero_matrix(self):
        assert is_regular(ZERO3, ("a", "b", "c"))
        assert is_strongly_regular(ZERO3, ("a", "b", "c"))

    def test_third_cycle(self):
        assert is_regular(THIRD_CYCLE, ("a", "b", "c"))
        assert not is_strongly_regular(THIRD_CYCLE, ("a", "b", "c"))
        assert is_strongly_regular(THIRD_CYCLE, ("a",))

    def test_lopsided_rows(self, strict_winner_profile):
        assert not is_regular(margins(strict_winner_profile), ("a", "b", "c"))


class TestMcgarvey:
    def test_unanimous_pair(self):
        m = skew(Agenda(("x", "y")), [("x", "y", 1)])
        profile, c = mcgarvey(m)
        assert c == 1
        assert profile.weights == {LinearOrder(("x", "y")): F(1)}

    def test_unit_cycle(self):
        profile, c = mcgarvey(UNIT_CYCLE)
        assert c == F(1, 3)
        assert margins(profile) == THIRD_CYCLE

    def test_disjoint_pairs(self):
        agenda = Agenda(("p", "q", "r", "s"))
        m = skew(agenda, [("p", "q", 2), ("r", "s", 1)])
        profile, c = mcgarvey(m)
        assert c == F(1, 3)
        got = margins(profile)
        assert got.entry("p", "q") == F(2, 3)
        assert got.entry("r", "s") == F(1, 3)
        assert got.entry("p", "r") == 0

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            mcgarvey(ZERO3)

    def test_roundtrip_random(self):
        gen = SplitMix64(2024)
        for _ in range(40):
            n = 2 + gen.below(5)
            agenda = Agenda(tuple("abcdef"[:n]))
            entries = []
            for i in range(n):
                for j in range(i + 1, n):
                    num = gen.below(7) - 3
                    den = 1 + gen.below(6)
                    entries.append((agenda.ids[i], agenda.ids[j], F(num, den)))
            m = skew(agenda, entries)
            if m.is_zero():
                continue
            profile, c = mcgarvey(m)
            expected = tuple(tuple(c * v for v in row) for row in m.rows)
            assert margins(profile).rows == expected

    def test_matches_fraction_construction(self):
        gen = SplitMix64(1953)
        dens = (1, 2, 3, 5, 7)
        for n in (3, 4, 5, 6):
            agenda = Agenda(tuple("abcdef"[:n]))
            for _ in range(3):
                entries = []
                for i in range(n):
                    for j in range(i + 1, n):
                        num = gen.below(9) - 4
                        den = dens[gen.below(len(dens))]
                        entries.append((agenda.ids[i], agenda.ids[j], F(num, den)))
                m = skew(agenda, entries)
                if m.is_zero():
                    continue
                profile, c = mcgarvey(m)
                expected_profile, expected_c = mcgarvey_oracle(m)
                assert c == expected_c
                assert profile == expected_profile

    def test_symmetric_input_gives_symmetric_profile(self):
        profile, _ = mcgarvey(UNIT_CYCLE)
        rotation = {"a": "b", "b": "c", "c": "a"}
        assert permute(profile, rotation) == profile


class TestCycleDecompose:
    def test_zero_matrix_empty(self):
        assert cycle_decompose(ZERO3, ("a", "b", "c")) == []

    def test_single_cycle(self):
        terms = cycle_decompose(THIRD_CYCLE, ("a", "b", "c"))
        assert len(terms) == 1
        assert terms[0].coefficient == F(1, 3)
        assert set(terms[0].cycle) == {"a", "b", "c"}

    def test_reconstruction_of_two_cycles(self):
        agenda = Agenda(("w", "x", "y", "z"))
        first = cycle_incidence(agenda, ("w", "x", "y"))
        second = cycle_incidence(agenda, ("w", "y", "z"))
        mixed = MarginMatrix(
            agenda,
            tuple(
                tuple(F(1, 2) * a + F(1, 3) * b for a, b in zip(r1, r2))
                for r1, r2 in zip(first.rows, second.rows)
            ),
        )
        terms = cycle_decompose(mixed, agenda.ids)
        assert _reconstruct(agenda, terms) == mixed.rows
        for term in terms:
            assert term.coefficient > 0
            assert len(term.cycle) >= 3

    def test_respects_prefix(self):
        agenda = Agenda(("a", "b", "c", "d"))
        inner = cycle_incidence(agenda, ("a", "b", "c"))
        terms = cycle_decompose(inner, ("a", "b", "c"))
        assert _reconstruct(agenda, terms) == inner.rows
        assert all(set(t.cycle) <= {"a", "b", "c"} for t in terms)

    def test_rejects_bad_inputs(self, strict_winner_profile):
        agenda = Agenda(("a", "b", "c", "d"))
        spill = cycle_incidence(agenda, ("a", "b", "d"))
        with pytest.raises(ValueError):
            cycle_decompose(spill, ("a", "b", "c"))
        with pytest.raises(ValueError):
            cycle_decompose(margins(strict_winner_profile), ("a", "b", "c"))


def _reconstruct(agenda, terms):
    n = len(agenda)
    rows = [[F(0)] * n for _ in range(n)]
    for term in terms:
        inc = cycle_incidence(agenda, term.cycle)
        for i in range(n):
            for j in range(n):
                rows[i][j] += term.coefficient * inc.rows[i][j]
    return tuple(tuple(r) for r in rows)


class TestMatrixText:
    def test_roundtrip(self):
        text = format_matrix(THIRD_CYCLE)
        assert parse_matrix(text) == THIRD_CYCLE

    def test_parses_comments_and_header_order(self):
        text = "# cycle\nb a c\n0 -1/3 1/3\n1/3 0 -1/3\n-1/3 1/3 0\n"
        assert parse_matrix(text) == THIRD_CYCLE

    def test_rejects_non_skew_and_malformed(self):
        with pytest.raises(ValueError):
            parse_matrix("a b\n0 1\n1 0\n")
        with pytest.raises(ValueError):
            parse_matrix("a b\n0 0.5\n-0.5 0\n")
        with pytest.raises(ValueError):
            parse_matrix("a b\n0 1\n")
        with pytest.raises(ValueError):
            parse_matrix("")
