"""Command-line front end: parse ballots, run rules, check axioms, simulate.

Reports are JSON on stdout with every number serialized as an exact rational
string in lowest terms; diagnostics go to stderr.  Exit codes: 0 success (and
all checks passed), 1 at least one axiom check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction

from .axioms import (
    AXIOMS,
    check_agenda_consistency,
    check_cloning_consistency,
    check_composition_consistency,
    check_condorcet_consistency,
    check_neutrality,
    check_population_consistency,
    check_strong_population_consistency,
    check_unanimity,
    run_random_suite,
)
from .core import Agenda, LinearOrder, Profile, make_profile, to_json
from .margins import margins, mcgarvey, parse_matrix, parse_rational
from .rules import RuleId, apply_rule
from .sim import SimConfig, run_sim
from .solver import condorcet_winners, sample

class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _parse_weight(token: str, line: int) -> Fraction:
    try:
        value = parse_rational(token)
    except ValueError as exc:
        raise ParseError(line, f"malformed weight: {exc}") from None
    if value <= 0:
        raise ParseError(line, f"weights must be positive, got {value}")
    return value


def parse_ballots(text: str) -> Profile:
    """Read the ballot format: optional 'agenda:' header, 'weight: a > b > c'
    lines, '#' comments.  Raises ParseError with a line number on bad input."""
    agenda_ids: list[str] | None = None
    raw_entries: list[tuple[int, Fraction, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if content.lower().startswith("agenda:"):
            if agenda_ids is not None:
                raise ParseError(line_no, "duplicate agenda line")
            agenda_ids = content[len("agenda:"):].split()
            if not agenda_ids:
                raise ParseError(line_no, "agenda line lists no alternatives")
            continue
        if ":" not in content:
            raise ParseError(line_no, "expected 'weight: a > b > c'")
        weight_part, order_part = content.split(":", 1)
        weight = _parse_weight(weight_part, line_no)
        names = [tok.strip() for tok in order_part.split(">")]
        if any(not tok or " " in tok for tok in names):
            raise ParseError(line_no, "incomplete order: empty entry in ranking")
        raw_entries.append((line_no, weight, names))
    if not raw_entries:
        raise ParseError(0, "empty ballot file: no weighted orders found")
    if agenda_ids is None:
        agenda_ids = list(raw_entries[0][2])
    try:
        agenda = Agenda(agenda_ids)
    except ValueError as exc:
        raise ParseError(0, f"bad agenda: {exc}") from None
    wanted = set(agenda.ids)
    entries = []
    for line_no, weight, names in raw_entries:
        unknown = [x for x in names if x not in wanted]
        if unknown:
            raise ParseError(line_no, f"unknown alternative {unknown[0]!r}")
        if set(names) != wanted or len(names) != len(wanted):
            raise ParseError(line_no, "incomplete order: every alternative must appear once")
        entries.append((LinearOrder(names), weight))
    return make_profile(agenda, entries)


def format_ballots(profile: Profile) -> str:
    lines = ["agenda: " + " ".join(profile.agenda.ids)]
    for order in profile.orders():
        lines.append(f"{profile.weights[order]}: " + " > ".join(order.ranking))
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None


def _digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def _report(args_list, digest, results, started) -> dict:
    return {
        "command": args_list,
        "input_digest": digest,
        "results": results,
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }


def _cmd_solve(ns, argv, started) -> tuple[dict, int]:
    text = _read(ns.file)
    profile = parse_ballots(text)
    rule = RuleId.from_string(ns.rule)
    polytope = apply_rule(rule, profile)
    report = condorcet_winners(profile)
    results = {
        "rule": rule.value,
        "agenda": list(profile.agenda.ids),
        "vertices": [to_json(v.probs) for v in polytope.vertices],
        "essential_set": list(polytope.essential_support()),
        "condorcet": {"weak": list(report.weak), "strict": report.strict},
        "unique": polytope.unique() is not None,
    }
    return _report(argv, _digest(text), results, started), 0


def _cmd_sample(ns, argv, started) -> tuple[dict, int]:
    text = _read(ns.file)
    profile = parse_ballots(text)
    rule = RuleId.from_string(ns.rule)
    polytope = apply_rule(rule, profile)
    if len(polytope.vertices) > 1 and ns.vertex is None:
        raise ParseError(
            0,
            f"rule returns {len(polytope.vertices)} vertices; pick one with --vertex",
        )
    index = ns.vertex or 0
    if not 0 <= index < len(polytope.vertices):
        raise ParseError(0, f"--vertex must be in [0, {len(polytope.vertices)})")
    lottery = polytope.vertices[index]
    results = {
        "rule": rule.value,
        "agenda": list(profile.agenda.ids),
        "lottery": to_json(lottery.probs),
        "vertex": index,
        "seed": ns.seed,
        "alternative": sample(lottery, ns.seed),
    }
    return _report(argv, _digest(text), results, started), 0


def _parse_mapping(raw: str) -> dict[str, str]:
    mapping = {}
    for pair in raw.split(","):
        if ":" not in pair:
            raise ParseError(0, f"bad mapping entry {pair!r}: use old:new")
        old, new = (s.strip() for s in pair.split(":", 1))
        mapping[old] = new
    return mapping


def _cmd_check(ns, argv, started) -> tuple[dict, int]:
    rule = RuleId.from_string(ns.rule)
    axiom = ns.axiom
    if axiom not in AXIOMS:
        raise ParseError(0, f"unknown axiom {axiom!r}; choose from {', '.join(AXIOMS)}")
    texts = [_read(path) for path in ns.files]
    profiles = [parse_ballots(t) for t in texts]

    if ns.random:
        verdicts = run_random_suite(
            axiom, rule, ns.trials, ns.seed, ns.max_alternatives, ns.max_ballots
        )
        bounds = f"{ns.max_alternatives}:{ns.max_ballots}"
        digest = _digest(f"random:{axiom}:{rule.value}:{ns.trials}:{ns.seed}:{bounds}")
    else:
        verdicts = [_fixed_check(axiom, rule, profiles, ns)]
        digest = _digest(*texts)
    failed = sum(1 for v in verdicts if not v.passed)
    results = {
        "axiom": axiom,
        "rule": rule.value,
        "checked": len(verdicts),
        "failed": failed,
        "verdicts": [v.as_json() for v in verdicts],
    }
    return _report(argv, digest, results, started), (1 if failed else 0)


def _fixed_check(axiom, rule, profiles, ns):
    def need(count):
        if len(profiles) != count:
            raise ParseError(0, f"axiom {axiom!r} needs exactly {count} profile file(s)")

    if axiom in ("population", "strong-population"):
        need(2)
        lam = parse_rational(ns.mix)
        check = check_population_consistency if axiom == "population" else check_strong_population_consistency
        return check(rule, profiles[0], profiles[1], lam)
    if axiom in ("composition", "cloning"):
        need(1)
        if not ns.component:
            raise ParseError(0, f"axiom {axiom!r} needs --component")
        members = tuple(ns.component.split(","))
        pivot = ns.pivot or sorted(members)[0]
        check = check_composition_consistency if axiom == "composition" else check_cloning_consistency
        return check(rule, profiles[0], members, pivot)
    if axiom == "condorcet":
        need(1)
        return check_condorcet_consistency(rule, profiles[0])
    if axiom == "neutrality":
        need(1)
        if not ns.map:
            raise ParseError(0, "axiom 'neutrality' needs --map old:new,...")
        return check_neutrality(rule, profiles[0], _parse_mapping(ns.map))
    if axiom == "unanimity":
        need(0)
        return check_unanimity(rule)
    if axiom == "agenda":
        need(1)
        if not (ns.agenda1 and ns.agenda2):
            raise ParseError(0, "axiom 'agenda' needs --agenda1 and --agenda2")
        return check_agenda_consistency(
            rule, profiles[0], tuple(ns.agenda1.split(",")), tuple(ns.agenda2.split(","))
        )
    raise ParseError(0, f"axiom {axiom!r} has no fixed-instance form")


def _cmd_mcgarvey(ns, argv, started) -> tuple[dict, int]:
    text = _read(ns.file)
    matrix = parse_matrix(text)
    profile, scale = mcgarvey(matrix)
    produced = margins(profile)
    expected = tuple(tuple(scale * v for v in row) for row in matrix.rows)
    if produced.rows != expected:
        raise ValueError("margin roundtrip failed: the profile's margins are not c times the matrix")
    results = {
        "c": str(scale),
        "ballots": format_ballots(profile),
        "profile_margins": to_json(produced.rows),
        "roundtrip_verified": True,
    }
    return _report(argv, _digest(text), results, started), 0


def _cmd_simulate(ns, argv, started) -> tuple[dict, int]:
    generator = {"impartial": "impartial_culture", "spatial": "spatial"}[ns.generator]
    cfg = SimConfig(
        generator=generator,
        n_alternatives=ns.alts,
        n_voters=ns.voters,
        trials=ns.trials,
        seed=ns.seed,
        dim=ns.dim,
    )
    stats = run_sim(cfg)
    results = {"config": dataclasses.asdict(cfg), "stats": stats.as_json()}
    digest = _digest(json.dumps(results["config"], sort_keys=True))
    return _report(argv, digest, results, started), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxlot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="evaluate a rule on a ballot file")
    solve.add_argument("file")
    solve.add_argument("--rule", default="ml", choices=[r.value for r in RuleId])

    samp = sub.add_parser("sample", help="draw one alternative from a rule's lottery")
    samp.add_argument("file")
    samp.add_argument("--rule", default="ml", choices=[r.value for r in RuleId])
    samp.add_argument("--seed", type=int, required=True)
    samp.add_argument("--vertex", type=int, default=None,
                      help="vertex index when the rule returns several lotteries")

    check = sub.add_parser("check", help="run an axiom checker")
    check.add_argument("axiom", choices=list(AXIOMS))
    check.add_argument("files", nargs="*", help="profile file(s) for a fixed instance")
    check.add_argument("--rule", default="ml", choices=[r.value for r in RuleId])
    check.add_argument("--mix", default="1/2", help="mixing coefficient for population checks")
    check.add_argument("--component", help="comma-separated component ids")
    check.add_argument("--pivot", help="representative alternative inside the component")
    check.add_argument("--map", help="relabeling old:new,old:new for neutrality")
    check.add_argument("--agenda1", help="comma-separated first agenda")
    check.add_argument("--agenda2", help="comma-separated second agenda")
    check.add_argument("--random", action="store_true", help="random instances instead of files")
    check.add_argument("--trials", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--max-alternatives", type=int, default=5)
    check.add_argument("--max-ballots", type=int, default=6)

    mcg = sub.add_parser("mcgarvey", help="realize a skew matrix as profile margins")
    mcg.add_argument("file", help="matrix file: id header line, then n rational rows")

    simp = sub.add_parser("simulate", help="Monte Carlo election statistics")
    simp.add_argument("--generator", required=True, choices=["impartial", "spatial"])
    simp.add_argument("--alts", type=int, required=True)
    simp.add_argument("--voters", type=int, required=True)
    simp.add_argument("--trials", type=int, required=True)
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--dim", type=int, default=2)
    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "sample": _cmd_sample,
    "check": _cmd_check,
    "mcgarvey": _cmd_mcgarvey,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        report, code = _HANDLERS[ns.command](ns, argv, started)
    except (ParseError, ValueError) as exc:
        print(f"maxlot: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
