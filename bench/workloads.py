"""Workload inputs, op lists and output checks for the maxlot benchmark.

Every op is one `maxlot.cli.main(argv)` call.  A workload is one pass: a
fixed list of ops that a run repeats.  Inputs come from the workload seed
only, and ballot and matrix files are written under the run's work
directory before the first op.

The checks re-derive what they can without the library: solve vertices are
tested against margins tallied here from the ballot text, McGarvey ballots
are re-tallied here, and failure witnesses of membership-type axioms are
re-checked here.  Every failure witness is also replayed through the
library's public checker, which must return the identical witness.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

AXIOMS = (
    "population",
    "composition",
    "cloning",
    "condorcet",
    "neutrality",
    "unanimity",
    "agenda",
    "strong-population",
)
RULES = ("ml", "ml3", "rd", "borda")
# the acceptance suite asserts that ml passes every axiom except strong-population
ML_MUST_PASS = tuple(a for a in AXIOMS if a != "strong-population")


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    argv: list[str]
    items: int
    check: object  # callable(code, report) raising CheckFailed
    describe: str
    expect_code: int | None = 0


@dataclass
class Workload:
    ops: list[Op]
    deadline_s: float
    files: dict[str, str] = field(default_factory=dict)


# --- SplitMix64, the generator contract the library documents -------------


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    return _finalize((seed + (index + 1) * _GOLDEN) & _MASK)


def impartial_orders(n: int, voters: int, seed: int) -> list[list[str]]:
    """The draws of maxlot.sim.gen_impartial_culture(n, voters, seed)."""
    state = seed & _MASK
    ids = [f"a{i:02d}" for i in range(n)]
    orders = []
    for _ in range(voters):
        items = list(ids)
        for i in range(len(items) - 1, 0, -1):
            bound = i + 1
            limit = ((1 << 64) // bound) * bound
            while True:
                state = (state + _GOLDEN) & _MASK
                r = _finalize(state)
                if r < limit:
                    break
            j = r % bound
            items[i], items[j] = items[j], items[i]
        orders.append(items)
    return orders


# --- independent tallies ----------------------------------------------------


def parse_ballots(text: str) -> tuple[list[str], list[tuple[Fraction, list[str]]]]:
    agenda: list[str] | None = None
    ballots = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("agenda:"):
            agenda = line[len("agenda:"):].split()
            continue
        weight, order = line.split(":", 1)
        ballots.append((Fraction(weight.strip()), [x.strip() for x in order.split(">")]))
    if agenda is None:
        agenda = list(ballots[0][1])
    return sorted(agenda), ballots


def tally(agenda: list[str], ballots) -> list[list[Fraction]]:
    """Majority margins, normalized by the total weight."""
    index = {x: i for i, x in enumerate(agenda)}
    n = len(agenda)
    total = sum(w for w, _ in ballots)
    scale = math.lcm(*(w.denominator for w, _ in ballots))
    rows = [[0] * n for _ in range(n)]
    for w, order in ballots:
        iw = int(w * scale)
        pos = [index[x] for x in order]
        for a in range(n):
            i = pos[a]
            for b in range(a + 1, n):
                j = pos[b]
                rows[i][j] += iw
                rows[j][i] -= iw
    norm = total * scale
    return [[Fraction(v) / norm for v in row] for row in rows]


def never_loses(x: list[Fraction], rows: list[list[Fraction]]) -> bool:
    n = len(rows)
    return all(sum(x[i] * rows[i][j] for i in range(n) if x[i]) >= 0 for j in range(n))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


# --- simulate ---------------------------------------------------------------

SIM_ALTS = 7
SIM_VOTERS = 25
SIM_TRIALS = {"impartial": 12, "spatial": 10}
SIM_BATCHES = 64


def simulate(seed: int, workdir: Path) -> Workload:
    """Alternating impartial and spatial batches, each with a fresh seed.

    Odd electorates give a unique lottery on a small support, so the time
    goes to the generators and to margins, never to the face route.  Batch
    sizes are set so both kinds of op take about as long."""
    ops = []
    for b in range(SIM_BATCHES):
        generator = ("impartial", "spatial")[b % 2]
        batch_seed = derive_seed(seed, b)
        trials = SIM_TRIALS[generator]
        argv = [
            "simulate", "--generator", generator, "--alts", str(SIM_ALTS),
            "--voters", str(SIM_VOTERS), "--trials", str(trials), "--seed", str(batch_seed),
        ]
        ops.append(Op(argv, trials, _check_simulate(generator, trials, batch_seed), " ".join(argv)))
    return Workload(ops, deadline_s=60.0)


def _check_simulate(generator: str, trials: int, batch_seed: int):
    def check(code, report):
        res = report["results"]
        config = res["config"]
        expected = "impartial_culture" if generator == "impartial" else generator
        _require(config["generator"] == expected, "config echo: generator")
        _require((config["n_alternatives"], config["n_voters"], config["trials"], config["seed"])
                 == (SIM_ALTS, SIM_VOTERS, trials, batch_seed), "config echo")
        stats = res["stats"]
        hist = {int(k): v for k, v in stats["support_size_histogram"].items()}
        _require(stats["trials"] == trials, "trial count")
        # an odd electorate has no zero margin, so the lottery is unique
        # and every weak Condorcet winner is strict
        _require(stats["tied_trials"] == 0, "tied trial with an odd electorate")
        _require(sum(hist.values()) == trials, "histogram does not cover the trials")
        _require(all(1 <= k <= SIM_ALTS and k % 2 == 1 for k in hist), "support sizes must be odd")
        weak = Fraction(stats["condorcet_weak_freq"])
        _require(weak == Fraction(stats["condorcet_strict_freq"]), "weak and strict winners differ")
        _require(weak * trials == hist.get(1, 0), "Condorcet winners must be the size-1 supports")
        mean = Fraction(sum(k * v for k, v in hist.items()), trials)
        _require(Fraction(stats["mean_support_size"]) == mean, "mean support size")

    return check


# --- solve_cliffs -------------------------------------------------------------

# (alternatives, voters, profiles): the corpus is profiles 0..K-1 of each tier
SOLVE_TIERS = ((6, 26, 16), (8, 26, 16), (10, 26, 12), (12, 26, 12), (16, 25, 12))
SOLVE_DEADLINE_S = 3.0


def solve_cliffs(seed: int, workdir: Path) -> Workload:
    """`solve --rule ml` over impartial-culture profiles.

    Profile k of tier (n, v) has the draws of gen_impartial_culture(n, v, k),
    so profile 0 of the 12 x 26 tier is the known hang, and it stays in the
    corpus.  The workload seed shuffles the ballot lines and orders the ops;
    it does not draw new profiles or relabel them.  Solve times are
    heavy-tailed and swing up to fourfold with the label order, so with
    fresh draws a run would measure its draw rather than the program."""
    rng = random.Random(seed)
    ops = []
    files = {}
    for n, voters, count in SOLVE_TIERS:
        for k in range(count):
            lines = [" > ".join(order) for order in impartial_orders(n, voters, k)]
            rng.shuffle(lines)
            text = "".join(f"1: {line}\n" for line in lines)
            path = workdir / f"solve-{n}x{voters}-{k}.txt"
            files[str(path)] = text
            describe = f"impartial n={n} voters={voters} profile={k} file={path.name}"
            ops.append(Op(["solve", str(path), "--rule", "ml"], 1, _check_solve(text, voters % 2 == 1), describe))
    rng.shuffle(ops)
    return Workload(ops, deadline_s=SOLVE_DEADLINE_S, files=files)


def _check_solve(text: str, odd: bool):
    def check(code, report):
        res = report["results"]
        agenda, ballots = parse_ballots(text)
        rows = tally(agenda, ballots)
        n = len(agenda)
        _require(res["agenda"] == agenda, "agenda")
        vertices = [_fractions(v) for v in res["vertices"]]
        _require(len(vertices) >= 1, "no vertex")
        _require(vertices == sorted(vertices) and len(set(map(tuple, vertices))) == len(vertices),
                 "vertices not sorted and distinct")
        for x in vertices:
            _require(len(x) == n and all(p >= 0 for p in x) and sum(x) == 1, "vertex outside the simplex")
            _require(never_loses(x, rows), "vertex loses against the margins")
        if odd:
            _require(len(vertices) == 1, "an odd electorate has a unique maximal lottery")
        _require(res["unique"] == (len(vertices) == 1), "unique flag")
        support = sorted({agenda[i] for x in vertices for i in range(n) if x[i] > 0})
        _require(res["essential_set"] == support, "essential set")
        weak = [agenda[i] for i in range(n) if all(v >= 0 for v in rows[i])]
        strict = [agenda[i] for i in range(n) if all(rows[i][j] > 0 for j in range(n) if j != i)]
        _require(res["condorcet"]["weak"] == weak, "weak Condorcet winners")
        _require(res["condorcet"]["strict"] == (strict[0] if strict else None), "strict Condorcet winner")
        if strict:
            unit = [Fraction(int(x == strict[0])) for x in agenda]
            _require(vertices == [unit], "a strict Condorcet winner must win with certainty")

    return check


# --- check_random -------------------------------------------------------------

CHECK_TRIALS = 20
CHECK_SEED = 0


def check_random(seed: int, workdir: Path) -> Workload:
    """`check <axiom> --random` for every axiom and rule.

    The instances are fixed (`--seed 0`, 20 trials each) and the workload
    seed only orders the ops: instance cost grows steeply with the random
    agenda size, so fresh instances would make a run measure its draw
    rather than the program."""
    rng = random.Random(seed)
    ops = []
    for axiom in AXIOMS:
        for rule in RULES:
            argv = ["check", axiom, "--rule", rule, "--random", "--trials", str(CHECK_TRIALS),
                    "--seed", str(CHECK_SEED)]
            ops.append(Op(argv, CHECK_TRIALS, _check_axiom(axiom, rule), " ".join(argv), expect_code=None))
    rng.shuffle(ops)
    return Workload(ops, deadline_s=60.0)


def _check_axiom(axiom: str, rule: str):
    def check(code, report):
        res = report["results"]
        verdicts = res["verdicts"]
        failed = [v for v in verdicts if not v["passed"]]
        _require(res["axiom"] == axiom and res["rule"] == rule, "axiom or rule echo")
        _require(res["checked"] == CHECK_TRIALS == len(verdicts), "instance count")
        _require(res["failed"] == len(failed), "failure count")
        _require(code == (1 if failed else 0), "exit code")
        _require(all(v["axiom"] == axiom and v["rule"] == rule for v in verdicts), "verdict labels")
        if rule == "ml" and axiom in ML_MUST_PASS:
            _require(not failed, f"ml must satisfy {axiom}")
        for verdict in failed:
            recheck_witness(axiom, rule, verdict)

    return check


def _profile_rows(profile_json) -> tuple[list[str], list[list[Fraction]], list]:
    agenda = sorted(profile_json["agenda"])
    ballots = [(Fraction(w), order.split(">")) for order, w in profile_json["ballots"].items()]
    return agenda, tally(agenda, ballots), ballots


def _in_outcome(rule: str, profile_json, lottery_json) -> bool:
    """Membership of a lottery in the rule's outcome, computed here."""
    agenda, rows, ballots = _profile_rows(profile_json)
    x = [Fraction(lottery_json[a]) for a in agenda]
    if rule == "ml":
        return never_loses(x, rows)
    if rule == "ml3":
        return never_loses(x, [[v ** 3 for v in row] for row in rows])
    total = sum(w for w, _ in ballots)
    if rule == "rd":
        top = {a: Fraction(0) for a in agenda}
        for w, order in ballots:
            top[order[0]] += w / total
        return x == [top[a] for a in agenda]
    scores = {a: Fraction(0) for a in agenda}
    for w, order in ballots:
        for pos, a in enumerate(order):
            scores[a] += w * (len(order) - 1 - pos)
    best = max(scores.values())
    winners = [a for a in agenda if scores[a] == best]
    return x == [Fraction(1, len(winners)) if a in winners else Fraction(0) for a in agenda]


def recheck_witness(axiom: str, rule: str, verdict) -> None:
    witness = verdict["witness"]
    _require(witness is not None, "failed verdict without a witness")
    if axiom in ("population", "strong-population"):
        lam = Fraction(witness["coefficient"])
        mixed = {}
        for side, coeff in (("left", lam), ("right", 1 - lam)):
            for order, w in witness[side]["ballots"].items():
                mixed[order] = mixed.get(order, 0) + coeff * Fraction(w)
        expected = {order: w for order, w in mixed.items() if w}
        got = {order: Fraction(w) for order, w in witness["mixture"]["ballots"].items()}
        _require(got == expected, "witness mixture is not the stated mixture")
        lottery = witness["lottery"]
        in_both = _in_outcome(rule, witness["left"], lottery) and _in_outcome(rule, witness["right"], lottery)
        in_mix = _in_outcome(rule, witness["mixture"], lottery)
        if witness.get("direction", "dropped") == "dropped":
            _require(in_both and not in_mix, "population witness does not reproduce")
        else:
            _require(in_mix and not in_both, "strong-population witness does not reproduce")
    elif axiom == "condorcet":
        agenda, rows, _ = _profile_rows(witness["profile"])
        winner = witness["winner"]
        _require(all(v >= 0 for v in rows[agenda.index(winner)]), "witness winner is not a weak Condorcet winner")
        _require(witness["lottery"] == {a: "1" if a == winner else "0" for a in agenda}, "witness lottery")
        _require(not _in_outcome(rule, witness["profile"], witness["lottery"]), "condorcet witness does not reproduce")
    _replay(axiom, rule, verdict)


def _replay(axiom: str, rule: str, verdict) -> None:
    """Run the library checker on the witness inputs; it must fail identically."""
    from maxlot import axioms as ax
    from maxlot.core import Agenda, LinearOrder, make_profile
    from maxlot.rules import RuleId

    w = verdict["witness"]

    def profile(key):
        p = w[key]
        entries = [(LinearOrder(order.split(">")), Fraction(weight)) for order, weight in p["ballots"].items()]
        return make_profile(Agenda(p["agenda"]), entries)

    rid = RuleId(rule)
    if axiom == "population":
        again = ax.check_population_consistency(rid, profile("left"), profile("right"), Fraction(w["coefficient"]))
    elif axiom == "strong-population":
        again = ax.check_strong_population_consistency(rid, profile("left"), profile("right"), Fraction(w["coefficient"]))
    elif axiom == "composition":
        again = ax.check_composition_consistency(rid, profile("profile"), w["component"], w["pivot"])
    elif axiom == "cloning":
        again = ax.check_cloning_consistency(rid, profile("profile"), w["component"], w["pivot"])
    elif axiom == "condorcet":
        again = ax.check_condorcet_consistency(rid, profile("profile"))
    elif axiom == "neutrality":
        again = ax.check_neutrality(rid, profile("profile"), w["mapping"])
    elif axiom == "unanimity":
        again = ax.check_unanimity(rid)
    else:
        again = ax.check_agenda_consistency(rid, profile("profile"), w["agenda_one"], w["agenda_two"])
    _require(json.loads(json.dumps(again.as_json())) == verdict, f"{axiom} witness does not replay")


# --- mcgarvey -----------------------------------------------------------------

MCGARVEY_SIZES = (5, 6, 7)
MCGARVEY_PER_SIZE = 12


def mcgarvey(seed: int, workdir: Path) -> Workload:
    """`mcgarvey` on random skew rational matrices, twelve of each size.

    Every off-diagonal entry is nonzero, so a size-n matrix always yields
    the same number of weighted orders and the time depends on n."""
    rng = random.Random(seed)
    ops = []
    files = {}
    for r in range(MCGARVEY_PER_SIZE):
        for n in MCGARVEY_SIZES:
            ids = [chr(ord("a") + i) for i in range(n)]
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                v = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
                rows[i][j], rows[j][i] = v, -v
            text = " ".join(ids) + "\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
            path = workdir / f"mcgarvey-{r}-{n}.txt"
            files[str(path)] = text
            ops.append(Op(["mcgarvey", str(path)], 1, _check_mcgarvey(ids, rows), f"matrix n={n} file={path.name}"))
    return Workload(ops, deadline_s=60.0, files=files)


def _check_mcgarvey(ids: list[str], rows: list[list[Fraction]]):
    def check(code, report):
        res = report["results"]
        _require(res["roundtrip_verified"] is True, "roundtrip not verified")
        c = Fraction(res["c"])
        _require(c > 0, "scale must be positive")
        expected = [[c * v for v in row] for row in rows]
        _require([_fractions(row) for row in res["profile_margins"]] == expected, "reported margins")
        agenda, ballots = parse_ballots(res["ballots"])
        _require(agenda == ids, "ballot agenda")
        _require(sum(w for w, _ in ballots) == 1, "ballot weights must sum to 1")
        _require(tally(agenda, ballots) == expected, "ballots do not realize the matrix")

    return check


WORKLOADS = {
    "simulate": simulate,
    "solve_cliffs": solve_cliffs,
    "check_random": check_random,
    "mcgarvey": mcgarvey,
}
