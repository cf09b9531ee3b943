import json
import math
import time
from fractions import Fraction

import pytest

import maxlot.cli
from maxlot import Agenda, LinearOrder, parse_matrix
from maxlot.cli import ParseError, format_ballots, main, parse_ballots
from maxlot.sim import gen_impartial_culture

from conftest import profile_from

F = Fraction

EXAMPLE_TEXT = """\
agenda: a b c
1/2: a > b > c
1/3: a > c > b   # plurality block
1/6: b > c > a
"""

CLONE_TEXT = """\
agenda: a b b2
1/3: a > b2 > b
1/6: a > b > b2
1/2: b > b2 > a
"""

TIE_TEXT = "1: x > y\n1: y > x\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestBallotParsing:
    def test_reads_fixture(self, strict_winner_profile):
        assert parse_ballots(EXAMPLE_TEXT) == strict_winner_profile

    def test_counts_normalize(self):
        p = parse_ballots("3: a > b\n1: b > a\n")
        assert p.weights[LinearOrder(("a", "b"))] == F(3, 4)

    def test_single_line_normalizes_to_one(self):
        p = parse_ballots("1/2: a > b\n")
        assert p.weights == {LinearOrder(("a", "b")): F(1)}

    def test_agenda_inferred_when_absent(self):
        p = parse_ballots("2: b > a\n1: a > b\n")
        assert p.agenda == Agenda(("a", "b"))

    def test_malformed_weight(self):
        with pytest.raises(ParseError, match="line 2.*weight"):
            parse_ballots("agenda: a b\n0.5: a > b\n")
        with pytest.raises(ParseError, match="positive"):
            parse_ballots("agenda: a b\n-1: a > b\n")

    def test_unknown_alternative(self):
        with pytest.raises(ParseError, match="line 2.*unknown alternative 'z'"):
            parse_ballots("agenda: a b\n1: z > b\n")

    def test_incomplete_order(self):
        with pytest.raises(ParseError, match="line 3.*incomplete"):
            parse_ballots("agenda: a b c\n1: a > b > c\n1: a > b\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_ballots("# only a comment\n")

    def test_duplicate_agenda_line(self):
        with pytest.raises(ParseError, match="duplicate agenda"):
            parse_ballots("agenda: a b\nagenda: a b\n1: a > b\n")

    def test_serialize_parse_roundtrip(self, strict_winner_profile, clone_pair_profile):
        for profile in (strict_winner_profile, clone_pair_profile):
            assert parse_ballots(format_ballots(profile)) == profile


class TestSolveCommand:
    def test_ml_vertices(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        code, report, _ = run_cli(capsys, "solve", str(path), "--rule", "ml")
        assert code == 0
        results = report["results"]
        assert results["vertices"] == [["1", "0", "0"]]
        assert results["essential_set"] == ["a"]
        assert results["condorcet"] == {"weak": ["a"], "strict": "a"}
        assert results["unique"] is True

    def test_rd_vertices(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        code, report, _ = run_cli(capsys, "solve", str(path), "--rule", "rd")
        assert code == 0
        assert report["results"]["vertices"] == [["5/6", "1/6", "0"]]

    def test_tie_has_two_vertices(self, tmp_path, capsys):
        path = tmp_path / "tie.ballots"
        path.write_text(TIE_TEXT)
        code, report, _ = run_cli(capsys, "solve", str(path), "--rule", "ml")
        assert code == 0
        assert report["results"]["vertices"] == [["0", "1"], ["1", "0"]]
        assert report["results"]["unique"] is False

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ballots"
        path.write_text("1: a >\n")
        code, report, err = run_cli(capsys, "solve", str(path))
        assert code == 2 and report is None
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/x.ballots")
        assert code == 2
        assert "cannot read" in err


    def test_face_over_walk_budget_exits_2(self, tmp_path, capsys):
        # eight rock-paper-scissors blocks that tie each other: the maximal
        # lotteries are the mixtures of the eight block-uniform lotteries,
        # a 7-dimensional face on all 24 alternatives, C(24, 7) square
        # systems: refused at once instead of walked
        blocks = [[f"b{b}{x}" for x in "xyz"] for b in range(8)]
        lines = []
        for r in range(3):
            for order in (blocks, blocks[::-1]):
                lines.append(" > ".join(x for block in order for x in block[r:] + block[:r]))
        path = tmp_path / "blocks.ballots"
        path.write_text("".join(f"1: {line}\n" for line in lines))
        started = time.perf_counter()
        code, report, err = run_cli(capsys, "solve", str(path))
        assert time.perf_counter() - started < 5
        assert code == 2 and report is None
        assert "dimension d = 7" in err and str(math.comb(24, 7)) in err

    def test_even_electorate_at_twenty_solves(self, tmp_path, capsys):
        # two impartial voters over 20 alternatives: the simplex point ties
        # 15 columns, but the essential set has 3 alternatives
        path = tmp_path / "wide.ballots"
        path.write_text(format_ballots(gen_impartial_culture(20, 2, 0)))
        code, report, _ = run_cli(capsys, "solve", str(path))
        assert code == 0 and len(report["results"]["vertices"]) == 3


class TestSampleCommand:
    def test_degenerate_sample(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        code, report, _ = run_cli(capsys, "sample", str(path), "--rule", "ml", "--seed", "7")
        assert code == 0
        assert report["results"]["alternative"] == "a"

    def test_stable_across_runs(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        picks = set()
        for _ in range(3):
            _, report, _ = run_cli(capsys, "sample", str(path), "--rule", "rd", "--seed", "40")
            picks.add(report["results"]["alternative"])
        assert len(picks) == 1

    def test_tie_requires_vertex_flag(self, tmp_path, capsys):
        path = tmp_path / "tie.ballots"
        path.write_text(TIE_TEXT)
        code, _, err = run_cli(capsys, "sample", str(path), "--rule", "ml", "--seed", "1")
        assert code == 2
        assert "2 vertices" in err
        code, report, _ = run_cli(
            capsys, "sample", str(path), "--rule", "ml", "--seed", "1", "--vertex", "1"
        )
        assert code == 0
        assert report["results"]["alternative"] == "x"


class TestCheckCommand:
    def test_rd_composition_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "clone.ballots"
        path.write_text(CLONE_TEXT)
        code, report, _ = run_cli(
            capsys,
            "check", "composition", str(path),
            "--rule", "rd", "--component", "b,b2", "--pivot", "b",
        )
        assert code == 1
        assert report["results"]["failed"] == 1
        witness = report["results"]["verdicts"][0]["witness"]
        assert witness["composed"] == [{"a": "1/2", "b": "1/3", "b2": "1/6"}]

    def test_ml_condorcet_passes(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        code, report, _ = run_cli(capsys, "check", "condorcet", str(path), "--rule", "ml")
        assert code == 0
        assert report["results"]["failed"] == 0

    def test_population_fixed_instance(self, tmp_path, capsys):
        left = tmp_path / "left.ballots"
        right = tmp_path / "right.ballots"
        left.write_text("1: a > b > c\n1: b > c > a\n")
        right.write_text("1: a > c > b\n1: b > c > a\n")
        code, report, _ = run_cli(
            capsys,
            "check", "population", str(left), str(right),
            "--rule", "ml", "--mix", "1/2",
        )
        assert code == 0

    def test_random_mode(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "check", "population",
            "--rule", "ml", "--random", "--trials", "12", "--seed", "1",
        )
        assert code == 0
        assert report["results"]["checked"] == 12

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--trials", "-3", "trials"),
            ("--trials", "0", "trials"),
            ("--max-alternatives", "1", "max_alternatives"),
            ("--max-alternatives", "27", "max_alternatives"),
            ("--max-ballots", "0", "max_ballots"),
        ],
    )
    def test_random_mode_rejects_bad_options(self, capsys, flag, value, name):
        code, report, err = run_cli(
            capsys, "check", "population", "--rule", "ml", "--random", flag, value
        )
        assert code == 2 and report is None
        assert f"{name} must be" in err

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.ballots"
        path.write_text(EXAMPLE_TEXT)
        with pytest.raises(SystemExit):
            run_cli(capsys, "check", "condorcet", str(path), "--rule", "stv")

    @pytest.mark.parametrize("axiom", ["composition", "cloning"])
    def test_component_axioms_need_three_alternatives(self, capsys, axiom):
        code, report, err = run_cli(
            capsys, "check", axiom, "--rule", "ml", "--random", "--max-alternatives", "2"
        )
        assert code == 2 and report is None
        assert "max_alternatives must be" in err
        code, report, _ = run_cli(
            capsys, "check", axiom, "--rule", "ml", "--random", "--max-alternatives", "3",
            "--trials", "5",
        )
        assert code == 0 and report["results"]["checked"] == 5

    def test_random_digest_covers_instance_bounds(self, capsys):
        def digest(*bounds):
            code, report, _ = run_cli(
                capsys, "check", "cloning", "--rule", "borda", "--random", "--trials", "3", *bounds
            )
            assert code in (0, 1)
            return report["input_digest"]

        base = digest("--max-alternatives", "3", "--max-ballots", "4")
        assert digest("--max-alternatives", "3", "--max-ballots", "4") == base
        assert digest("--max-alternatives", "4", "--max-ballots", "4") != base
        assert digest("--max-alternatives", "3", "--max-ballots", "5") != base


class TestMcgarveyCommand:
    def test_cycle_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        path.write_text("a b c\n0 1 -1\n-1 0 1\n1 -1 0\n")
        code, report, _ = run_cli(capsys, "mcgarvey", str(path))
        assert code == 0
        results = report["results"]
        assert results["c"] == "1/3"
        assert results["roundtrip_verified"] is True
        rebuilt = parse_ballots(results["ballots"])
        assert rebuilt == profile_from(
            {"a>b>c": F(1, 3), "b>c>a": F(1, 3), "c>a>b": F(1, 3)}
        )

    def test_unanimous_pair(self, tmp_path, capsys):
        path = tmp_path / "m.matrix"
        path.write_text("o1 o2\n0 1\n-1 0\n")
        code, report, _ = run_cli(capsys, "mcgarvey", str(path))
        assert code == 0
        assert report["results"]["c"] == "1"
        assert "1: o1 > o2" in report["results"]["ballots"]

    def test_zero_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "z.matrix"
        path.write_text("a b\n0 0\n0 0\n")
        code, _, err = run_cli(capsys, "mcgarvey", str(path))
        assert code == 2
        assert "zero matrix" in err

    def test_non_skew_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.matrix"
        path.write_text("a b\n0 1\n1 0\n")
        code, _, _ = run_cli(capsys, "mcgarvey", str(path))
        assert code == 2

    def test_roundtrip_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m.matrix"
        path.write_text("a b c\n0 1 -1\n-1 0 1\n1 -1 0\n")
        wrong = parse_matrix("a b c\n0 1 0\n-1 0 0\n0 0 0\n")
        monkeypatch.setattr(maxlot.cli, "margins", lambda profile: wrong)
        code, report, err = run_cli(capsys, "mcgarvey", str(path))
        assert code == 2
        assert report is None
        assert "roundtrip" in err


class TestSimulateCommand:
    def test_single_trial(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "simulate", "--generator", "impartial",
            "--alts", "3", "--voters", "3", "--trials", "1", "--seed", "5",
        )
        assert code == 0
        hist = report["results"]["stats"]["support_size_histogram"]
        assert sum(hist.values()) + report["results"]["stats"]["tied_trials"] == 1

    def test_same_seed_same_stats(self, capsys):
        argv = [
            "simulate", "--generator", "impartial",
            "--alts", "3", "--voters", "4", "--trials", "30", "--seed", "9",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first["results"]["stats"] == second["results"]["stats"]

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--generator", "impartial",
            "--alts", "1", "--voters", "3", "--trials", "5", "--seed", "0",
        )
        assert code == 2

    def test_no_floats_in_report(self, capsys):
        _, report, _ = run_cli(
            capsys,
            "simulate", "--generator", "spatial",
            "--alts", "3", "--voters", "5", "--trials", "8", "--seed", "3", "--dim", "2",
        )

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(report["results"])


@pytest.mark.parametrize(
    "text, argv, token",
    [
        ("agenda: a b\n2/0: a > b\n", ["solve", "{path}"], "2/0"),
        ("a b\n0 3/0\n-1 0\n", ["mcgarvey", "{path}"], "3/0"),
        ("agenda: a b\n1: a > b\n", ["check", "population", "{path}", "{path}", "--mix", "1/00"], "1/00"),
    ],
    ids=["weight", "matrix-entry", "mix"],
)
def test_zero_denominator_exits_2(tmp_path, capsys, text, argv, token):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, report, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and report is None
    assert repr(token) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, argv",
    [
        (EXAMPLE_TEXT, ["solve", "--rule", "ml"]),
        (TIE_TEXT, ["solve", "--rule", "borda"]),
        ("a b c\n0 1 -1\n-1 0 1\n1 -1 0\n", ["mcgarvey"]),
    ],
)
def test_byte_order_mark_is_ignored(tmp_path, capsys, text, argv):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, expected, _ = run_cli(capsys, argv[0], str(plain), *argv[1:])
    assert code == 0
    code, report, _ = run_cli(capsys, argv[0], str(marked), *argv[1:])
    assert code == 0
    assert report["results"] == expected["results"]
