"""Benchmark of coregauge: one seeded workload per run, checked outputs.

    python3 perfbench/run.py --workload tree-n64 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports coregauge from ``src/``. Load is
a closed loop with one client, one process and one thread: the allocators
are pure Python bound by the interpreter lock, so more clients would only
queue on it. Workloads and why each was chosen are in ``workloads.py``.

``--trace 0`` times ops on the seed's instances for ``--seconds`` and reports
the end-to-end metrics. ``--trace 1`` runs the workload's fixed op list
untraced for half of ``--seconds``, then once with every public function of
coregauge wrapped (``layerspans.py``), and reports per-layer metrics per op
and the tracing overhead. Every op's output is checked: exit code and JSON
of the CLI, finiteness, efficiency, the grand value against networkx or
scipy, the paper's verdicts, and golden outputs for the recorded seed.

The last line of stdout is the result object; the line before it holds the
details: environment, per-op records and failures, sample counts, absent
metrics, and the bases of the per-layer counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from layerspans import Tracer
from workloads import (
    RECORDED_SEED,
    WORKLOADS,
    CheckFailed,
    OpTimeout,
    check,
    compare_golden,
    instance_dict,
    load_golden,
    make_op,
    reference_value,
    summarize,
    timed_setup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 30.0  # about ten times the slowest op at this commit
SETUP_PROBES = 4  # set-ups in fresh interpreters, besides the run's own
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "rounding.round_weights.calls": "count",
    "rounding.round_weights.self_s": "s",
    "rounding.breakpoints.self_s": "s",
    "rounding.intervals": "count",
    "mst.auxiliary_tree.calls": "count",
    "mst.auxiliary_tree.self_s": "s",
    "mst.mst_allocate.self_s": "s",
    "mst.integrate_mst.self_s": "s",
    "mst.distinct_dendrograms": "count",
    "mst.useful_ratio": "ratio",
    "matching.greedy_allocate.calls": "count",
    "matching.greedy_allocate.self_s": "s",
    "matching.integrate_matching.self_s": "s",
    "matching.normalize_welfare.self_s": "s",
    "matching.distinct_matchings": "count",
    "matching.useful_ratio": "ratio",
    "oracles.max_weight_matching.calls": "count",
    "oracles.max_weight_matching.self_s": "s",
    "oracles.grand_calls_per_op": "count",
    "oracles.mst_weight.calls": "count",
    "oracles.mst_weight.self_s": "s",
    "oracles.char_value.calls": "count",
    "oracles.char_table.self_s": "s",
    "analysis.core_check.self_s": "s",
    "analysis.lipschitz_scan.self_s": "s",
    "analysis.lipschitz_scan.probes": "count",
    "analysis.exact_core_solve.self_s": "s",
    "exactlp.solve_feasible.calls": "count",
    "exactlp.solve_feasible.self_s": "s",
    "shapley.shapley_exact.self_s": "s",
    "cli.allocate.self_s": "s",
    "games.load_instance.self_s": "s",
    "games.validate_instance.self_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Record:
    phase: str  # "canary", "timed", "untraced" or "traced"
    case: object
    out: object
    seconds: float
    failure: str | None


def _alarm(signum, frame):
    raise OpTimeout()


def timed(op, case, phase: str) -> Record:
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        out, failure = op(case), None
    except OpTimeout:
        out, failure = None, "timeout"
    except Exception as exc:  # a raising op is a failed op; the run goes on
        out, failure = None, f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Record(phase, case, out, time.perf_counter() - start, failure)


def closed_loop(op, cases, seconds: float) -> tuple[list[Record], float]:
    """Run ops back to back, cycling through ``cases``, until ``seconds`` have
    passed; the op running at the deadline completes and counts."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(timed(op, cases[len(records) % len(cases)], "timed"))
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start


def traced_passes(op, cg, fixed, seconds: float):
    """Whole untraced passes over ``fixed`` for half of ``seconds``, then one
    traced pass, so that both rates cover the same instances."""
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        untraced += [timed(op, case, "untraced") for case in fixed]
    untraced_wall = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(cg)
    traced = []
    start = time.perf_counter()
    try:
        for case in fixed:
            traced.append(timed(op, case, "traced"))
            tracer.end_op()
    finally:
        tracer.uninstall()
    return untraced, untraced_wall, traced, time.perf_counter() - start, tracer


def rate(records: list[Record], wall: float) -> float:
    return sum(r.failure is None for r in records) / wall


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    """Commit of a git checkout at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "coregauge").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "scipy": version("scipy"),
        "click": version("click"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def verify(w, records: list[Record]) -> None:
    """Fill in ``failure`` for every op whose output fails a check."""
    golden = load_golden(w)
    references: dict[tuple[int, int], float] = {}
    for rec in records:
        if rec.failure is not None:
            continue
        case = rec.case
        try:
            got = summarize(w, case, rec.out)
        except CheckFailed as exc:
            rec.failure = str(exc)
            continue
        key = (case.seed, case.index)
        if key not in references:
            references[key] = reference_value(case, instance_dict(w, case.seed, case.index))
        problems = check(w, case, got, references[key])
        if case.seed == RECORDED_SEED:
            if case.index in golden:
                problems += compare_golden(got, golden[case.index])
            elif rec.phase == "canary":
                problems.append("no golden output for the canary")
        rec.failure = "; ".join(problems) or None


def op_rows(records: list[Record]) -> list[dict]:
    return [{"phase": r.phase, "instance": [r.case.seed, r.case.index], "kind": r.case.kind,
             "n": r.case.n, "m": r.case.m, "seconds": r.seconds, "failure": r.failure}
            for r in records]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if not (SRC / "coregauge" / "__init__.py").is_file():
        print(f"error: no coregauge sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    setup_samples = [setup_probe(w.name, args.seed) for _ in range(SETUP_PROBES)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        cg, cases, canary, own_setup = timed_setup(w, args.seed, SRC, workdir)
        setup_samples.append(own_setup)
        op = make_op(w, cg)
        records = [timed(op, canary, "canary")]  # warm-up, checked against golden output
        if args.trace:
            untraced, untraced_wall, traced, traced_wall, tracer = traced_passes(
                op, cg, cases[: w.trace_ops], args.seconds)
            records += untraced + traced
        else:
            loop, wall = closed_loop(op, cases, args.seconds)
            records += loop
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify(w, records)

    failed = sum(r.failure is not None for r in records)
    detail = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load": "closed loop: 1 client, 1 process, 1 thread"}
    if args.trace:
        layer, bases = tracer.metrics()
        untraced_rate, traced_rate = rate(untraced, untraced_wall), rate(traced, traced_wall)
        layer["trace.ops_per_s"] = (traced_rate, "1/s")
        layer["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        layer["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0 if traced_rate else 0.0, "ratio")
        values = {name: value for name, (value, _) in layer.items()}
        declared = PER_LAYER
        detail["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layer.items())}
        detail["bases"] = bases
        detail["wait_s"] = "absent: one thread and no queues; the only I/O is reading instance files"
    else:
        # a failed op misses any latency limit, so it counts at the timeout
        latencies = [r.seconds if r.failure is None else OP_TIMEOUT_S for r in loop]
        values = {
            "ops_per_s": rate(loop, wall),
            "op_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = END_TO_END
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) >= P90_MIN_SAMPLES else None
        detail["metrics"] = {
            "ops_per_s": {"samples": len(loop), "wall_s": wall},
            "op_p50_s": {"samples": len(latencies), "percentile": 50},
            "op_p90_s": {"value": p90, "unit": "s", "samples": len(latencies), "percentile": 90,
                         "absent": None if p90 is not None else
                         f"needs {P90_MIN_SAMPLES} samples for 10 beyond p90, has {len(latencies)}"},
            "setup_s": {"samples": len(setup_samples), "percentile": 50, "values": setup_samples},
            "peak_rss_mb": {"samples": 1, "note": "ru_maxrss before the output checks"},
            "fail_frac": {"value": failed / len(records), "unit": "ratio", "samples": len(records)},
        }
    detail["env"] = environment()
    detail["ops"] = op_rows(records)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
