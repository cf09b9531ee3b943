"""Closed-loop benchmark of the maxlot CLI, with a traced per-layer split.

    python3 bench/run.py --workload solve_cliffs --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 15
    python3 bench/run.py --compare before.jsonl after.jsonl

One process, one thread, one client: each op is a `maxlot.cli.main(argv)`
call made in-process on inputs generated from the workload seed, and the
next op starts when the previous one has returned and its JSON report has
been checked.  The package under test is `src/` of this checkout; the
benchmark refuses to run against any other copy.

A workload is a fixed list of ops, one pass.  With `--trace 0` a run
repeats whole passes until `--seconds` of op time have passed and reports
the end-to-end metrics, timing each op by the median of its repetitions in
reference seconds (see `clock.py`).  With `--trace 1` it runs one pass
untraced and one traced, and reports the per-layer metrics of the traced
pass; spans are written to `bench/results/`.  `--out FILE` appends the run
record (metrics, provenance, failures and timeouts) to a JSON-lines file
that `--compare` reads.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))
from clock import OpClock, OpTimeout  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ProvenanceError(RuntimeError):
    pass


# --- set-up -----------------------------------------------------------------


def _import_cli():
    for name in [m for m in sys.modules if m == "maxlot" or m.startswith("maxlot.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("maxlot.cli")
    maxlot = sys.modules["maxlot"]
    expected = (SRC / "maxlot" / "__init__.py").resolve()
    if Path(maxlot.__file__).resolve() != expected:
        raise ProvenanceError(f"maxlot resolves to {maxlot.__file__}, not {expected}")
    return cli


def set_up(workload: str, seed: int, clock: OpClock):
    """Import the package and write the inputs, several times; the median
    of the repeats, in reference seconds, is the set-up time."""
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    times = []
    for _ in range(SETUP_REPEATS):
        clock.start(math.inf)
        try:
            cli = _import_cli()
            workdir.mkdir(parents=True, exist_ok=True)
            wl = WORKLOADS[workload](seed, workdir)
            for path, text in wl.files.items():
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
        finally:
            _, reference = clock.stop()
        times.append(reference)
    return cli, wl, workdir, statistics.median(times)


def _remove_workdir(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()


# --- ops ----------------------------------------------------------------------


def _digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_op(cli, clock: OpClock, op, deadline_s: float, tracer: Tracer | None = None, op_id: int = 0):
    """One op under the deadline; returns (status, seconds, reference seconds,
    report, detail)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    status = "ok"
    # every op starts with an empty young generation, so when the collector
    # runs inside it depends on the op and not on what ran before it
    gc.collect()
    clock.start(deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(op.argv)
            else:
                code = tracer.run_op(op_id, lambda: cli.main(op.argv))
    except OpTimeout:
        status = "timeout"
    except SystemExit as exc:
        code = exc.code
    finally:
        elapsed, reference = clock.stop()
    if status == "timeout":
        return status, elapsed, reference, None, f"no report within {deadline_s:g} reference s"
    if code not in (0, 1) or (op.expect_code is not None and code != op.expect_code):
        return "error", elapsed, reference, None, f"exit code {code}: {err.getvalue().strip()[:300]}"
    try:
        report = json.loads(out.getvalue())
        op.check(code, report)
    except Exception as exc:  # a malformed report is a wrong answer, not a crash
        return "wrong", elapsed, reference, None, f"{type(exc).__name__}: {exc}"
    return "ok", elapsed, reference, report, ""


class Passes:
    """Outcomes of one or more passes over a workload's ops.

    Each op is timed by the median of its repetitions, in reference
    seconds (see clock.py)."""

    def __init__(self, ops, digests):
        self.ops = ops
        self.digests = digests
        self.times: list[list[float]] = [[] for _ in ops]
        self.ok = [True] * len(ops)
        self.raw_s = 0.0
        self.passes = 0
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, cli, clock: OpClock, deadline_s: float, tracer: Tracer | None = None) -> float:
        """One pass; returns the op time it took, in reference seconds."""
        spent = 0.0
        for index, op in enumerate(self.ops):
            status, elapsed, reference, report, detail = run_op(cli, clock, op, deadline_s, tracer, index)
            digest = self.digests[index] if self.digests and index < len(self.digests) else None
            if status == "ok" and digest and _digest(report["results"]) != digest:
                status, detail = "wrong", "results digest differs from the recorded digest"
            self.attempted += 1
            self.times[index].append(reference)
            self.raw_s += elapsed
            if status != "ok":
                self.ok[index] = False
                self.failures.append({"pass": self.passes, "op": index, "status": status,
                                      "inputs": op.describe, "argv": op.argv, "detail": detail})
            spent += reference
        self.passes += 1
        return spent

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f["status"] == "timeout" for f in self.failures)

    def op_seconds(self) -> list[float]:
        return [statistics.median(times) for times in self.times]

    def items_per_s(self) -> float:
        items = sum(op.items for op, ok in zip(self.ops, self.ok) if ok)
        return items / sum(self.op_seconds())


def _load_digests(workload: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def measure(cli, clock: OpClock, wl, seconds: float, digests) -> Passes:
    """Whole passes over the workload until `seconds` of reference op time."""
    result = Passes(wl.ops, digests)
    spent = 0.0
    while spent < seconds:
        spent += result.run(cli, clock, wl.deadline_s)
    return result


# --- metrics ------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(result: Passes, setup_s: float) -> tuple[dict, dict]:
    op_seconds = result.op_seconds()
    tail_s, percentile, samples = tail(op_seconds)
    metrics = {
        "items_per_s": (result.items_per_s(), "items/s"),
        "op_p50_ms": (statistics.median(op_seconds) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "success_ratio": ((result.attempted - result.failed) / result.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {"passes": result.passes, "op_tail_percentile": round(percentile, 2), "op_samples": samples,
             "measured_op_s": result.raw_s}
    return metrics, extra


def per_layer(result: Passes, baseline: Passes, tracer: Tracer) -> dict:
    values = tracer.layer_metrics(result.items_per_s(), baseline.items_per_s())
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith((".calls", ".instances")):
            units[name] = "count"
        elif name == "margins.per_profile":
            units[name] = "calls/profile"
        elif name == "polytope.vertex_yield":
            units[name] = "vertices/system"
        else:
            units[name] = "ratio"
    return {name: (value, units[name]) for name, value in values.items()}


# --- provenance -----------------------------------------------------------------


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "maxlot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


# --- modes ------------------------------------------------------------------------


def run_workload(args) -> int:
    clock = OpClock()
    clock.install()
    try:
        cli, wl, workdir, setup_s = set_up(args.workload, args.seed, clock)
    except (ImportError, ProvenanceError) as exc:
        print(f"bench: cannot load maxlot from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        digests = _load_digests(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "provenance": provenance()}
        if args.trace:
            baseline = Passes(wl.ops, digests)
            baseline.run(cli, clock, wl.deadline_s)
            result = Passes(wl.ops, digests)
            tracer = Tracer()
            tracer.install()
            try:
                result.run(cli, clock, wl.deadline_s, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(result, baseline, tracer)
            RESULTS_DIR.mkdir(exist_ok=True)
            spans_path = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            record.update(spans=str(spans_path.relative_to(ROOT)), spans_kept=len(tracer.span_start),
                          spans_dropped=tracer.spans_dropped)
        else:
            result = measure(cli, clock, wl, args.seconds, digests)
            metrics, extra = end_to_end(result, setup_s)
            record.update(extra)
    finally:
        _remove_workdir(workdir)
    record.update(
        correct=result.correct, attempted=result.attempted, failed=result.failed,
        digest_checked=digests is not None, failures=result.failures,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13} {name:<36} {value:>14.6g} {unit}")
    for failure in result.failures:
        print(f"{args.workload:>13} {failure['status']}: op {failure['op']} {failure['inputs']}: {failure['detail']}")
    print(json.dumps({k: record[k] for k in record if k not in ("metrics", "failures")}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = child.stdout.rstrip("\n").splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            return child.returncode or 2
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def compare(base_path: str, new_path: str) -> int:
    """Median and quartiles of each side; flag regressions beyond the bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sides = [_load_records(base_path), _load_records(new_path)]
    regressions = 0
    print(f"{'workload':<13} {'metric':<36} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}  verdict")
    keys = sorted(set(sides[0]) | set(sides[1]))
    for workload, metric in keys:
        base, new = sides[0].get((workload, metric), []), sides[1].get((workload, metric), [])
        if not base or not new:
            print(f"{workload:<13} {metric:<36} missing on one side")
            continue
        b, n = _summary(base), _summary(new)
        change = (n[0] - b[0]) / b[0] if b[0] else 0.0
        verdict = ""
        if metric in bounds:
            bound, better = bounds[metric]
            worse = change if better == "lower" else -change
            spread = max(_spread(b), _spread(n))
            all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
            if all_better:
                verdict = "better"
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
            elif worse > bound:
                verdict = f"REGRESSION (bound {bound})"
                regressions += 1
            else:
                verdict = "within bound"
        print(f"{workload:<13} {metric:<36} {_fmt(b):>34} {_fmt(n):>34} {change:>+8.1%}  {verdict}")
    return 1 if regressions else 0


def _load_records(path: str) -> dict:
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for metric, entry in record["metrics"].items():
                    values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _spread(summary) -> float:
    median, q1, q3 = summary
    return (q3 - q1) / abs(median) if median else 0.0


def _fmt(summary) -> str:
    median, q1, q3 = summary
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def record_digests() -> int:
    """Write the results digests of the default seed's ops to digests.json."""
    clock = OpClock()
    clock.install()
    recorded = {}
    for name in WORKLOADS:
        cli, wl, workdir, _ = set_up(name, DEFAULT_SEED, clock)
        try:
            digests = []
            for op in wl.ops:
                status, _, _, report, detail = run_op(cli, clock, op, wl.deadline_s)
                if status == "wrong" or status == "error":
                    print(f"{name}: {op.describe}: {detail}", file=sys.stderr)
                    return 1
                digests.append(_digest(report["results"]) if status == "ok" else None)
            recorded[name] = digests
        finally:
            _remove_workdir(workdir)
        print(f"{name}: {sum(d is not None for d in digests)} of {len(digests)} ops recorded")
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two JSON-lines files")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed's outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
