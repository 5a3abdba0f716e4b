"""Workloads of the coregauge benchmark: seeded inputs, the op each one
times, and the checks every op's output must pass.

Instances come from the benchmark's own RNG (``random.Random`` seeded with
a string that names the workload, the seed and the instance index), never
from ``coregauge.gen_random``, so the program under test receives only the
generated inputs. Golden outputs in ``golden/<workload>.json`` were recorded
for ``RECORDED_SEED``; every run also executes instance 0 of that seed as an
untimed warm-up op (the canary), so each run is checked against them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

RECORDED_SEED = 0
REL_TOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The paper's factors and sensitivity bounds, written out here so that the
# checks do not depend on the library's own constants.
MATCHING_EPSILON = 0.25
MATCHING_ALPHA = 0.5 - MATCHING_EPSILON
MATCHING_BOUND = 24.0 / (2.0 * MATCHING_EPSILON) + 1.0
TREE_ALPHA = 4.0
TREE_BOUND = 20.0 / math.log(2.0) + 1.0
RAW_BASE = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mst", "matching", or "alternate" (even index matching, odd mst)
    n: int
    edge_prob: float
    integer_weights: bool  # weights 1..8 instead of uniform on (0, 10]
    entry: str  # "cli" (allocate in-process), "raw" (matching-raw) or "verify"
    pool: int  # instances prepared per run; the timed loop cycles through them
    trace_ops: int  # length of the fixed op list of the traced pass
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree-n64", "mst", 64, 0.5, False, "cli", 16, 2,
            "m+1 offset intervals but only n+1 distinct dendrograms: rounding and "
            "Kruskal rebuilds dominate, the grand oracle is negligible",
        ),
        Workload(
            "matching-n20", "matching", 20, 0.5, False, "cli", 16, 2,
            "the 2^n grand-value DP, run twice by the CLI, is nearly all of the op; "
            "the offset integral is ~1%",
        ),
        Workload(
            "matching-raw-n300", "matching", 300, 0.03, False, "raw", 16, 2,
            "sparse large matching game: greedy scans and per-interval re-rounding "
            "dominate, no oracle work",
        ),
        Workload(
            "verify-n12", "alternate", 12, 0.5, True, "verify", 48, 4,
            "exponential verification engines plus ~130-180 tiny allocator calls per op "
            "with many ties",
        ),
        Workload(
            "verify-n8", "alternate", 8, 0.5, True, "verify", 160, 8,
            "verify-n12 at n=8: about ten times as many ops per run, so that the heavy tail "
            "of exact_core_solve averages out between seeds; per-call overheads weigh more",
        ),
    )
}


class OpTimeout(BaseException):
    """Raised by the per-op alarm. A BaseException, so that neither the CLI
    runner nor ``lipschitz_scan`` converts it into an ordinary failure."""


@dataclass
class Case:
    seed: int
    index: int
    kind: str
    n: int
    m: int
    path: str
    inst: object  # coregauge.GameInstance for library-level workloads, else None


def instance_dict(w: Workload, seed: int, index: int) -> dict:
    """Instance ``index`` of workload ``w`` for ``seed``, in the interchange schema."""
    rng = random.Random(f"coregauge-bench/{w.name}/{seed}/{index}")
    kind = w.kind if w.kind != "alternate" else ("matching", "mst")[index % 2]

    def weight() -> float:
        if w.integer_weights:
            return float(rng.randint(1, 8))
        return 10.0 * (1.0 - rng.random())  # uniform on (0, 10]

    edges = []
    if kind == "mst":
        for v in range(w.n):
            edges.append({"id": len(edges), "u": -1, "v": v, "w": weight()})
    # Exactly round(p * C(n, 2)) agent pairs, drawn uniformly: each pair is an
    # edge with probability p, and m does not vary between instances, since
    # op cost grows as m^2 to m^3 and would otherwise dominate the spread.
    pairs = [(u, v) for u in range(w.n) for v in range(u + 1, w.n)]
    for k in sorted(rng.sample(range(len(pairs)), round(w.edge_prob * len(pairs)))):
        u, v = pairs[k]
        edges.append({"id": len(edges), "u": u, "v": v, "w": weight()})
    return {"kind": kind, "n": w.n, "edges": edges}


def import_coregauge(src: Path):
    """Import coregauge from ``src`` and refuse a copy installed elsewhere."""
    sys.path.insert(0, str(src))
    cg = importlib.import_module("coregauge")
    importlib.import_module("coregauge.cli")
    origin = Path(cg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"coregauge was imported from {origin}, not from {src}")
    return cg


def make_case(w: Workload, seed: int, index: int, workdir: str, cg) -> Case:
    data = instance_dict(w, seed, index)
    path = os.path.join(workdir, f"{w.name}-{seed}-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    inst = cg.load_instance(path) if w.entry != "cli" else None
    return Case(seed, index, data["kind"], data["n"], len(data["edges"]), path, inst)


def timed_setup(w: Workload, seed: int, src: Path, workdir: str):
    """Import coregauge and prepare the run's inputs: the seeded pool and the
    canary. Returns (coregauge, cases, canary, seconds)."""
    start = time.perf_counter()
    cg = import_coregauge(src)
    cases = [make_case(w, seed, i, workdir, cg) for i in range(w.pool)]
    canary = make_case(w, RECORDED_SEED, 0, workdir, cg)
    return cg, cases, canary, time.perf_counter() - start


def make_op(w: Workload, cg):
    """The callable one op runs. It returns the op's raw output; turning it
    into numbers (``summarize``) and checking it happen outside the timer."""
    if w.entry == "cli":
        from click.testing import CliRunner

        runner = CliRunner()
        extra = ["--epsilon", repr(MATCHING_EPSILON)] if w.kind == "matching" else []

        def cli_op(case: Case):
            res = runner.invoke(cg.cli.main, ["allocate", case.path, *extra])
            return {"exit_code": res.exit_code, "stdout": res.stdout,
                    "stderr": res.stderr, "exception": res.exception}

        return cli_op

    if w.entry == "raw":
        raw = cg.named_allocator("matching-raw", base=RAW_BASE)

        def raw_op(case: Case):
            return tuple(raw(case.inst))

        return raw_op

    allocators = {
        "matching": (cg.named_allocator("matching-core", epsilon=MATCHING_EPSILON),
                     MATCHING_ALPHA, MATCHING_BOUND),
        "mst": (cg.named_allocator("mst-core"), TREE_ALPHA, TREE_BOUND),
    }

    def verify_op(case: Case):
        alloc, alpha, bound = allocators[case.kind]
        inst = case.inst
        table = cg.char_table(inst)
        x = cg.Allocation.of(alloc(inst))
        core = cg.core_check(inst, x, alpha, table=table)
        shap = cg.shapley_exact(inst)
        exact = cg.exact_core_solve(inst)
        lip = cg.lipschitz_scan(alloc, inst, bound)
        return {
            "allocation": list(x.values),
            "grand_value": table.grand,
            "core_pass": bool(core.passed),
            "shapley": list(shap.values),
            "exact_core": None if exact is None else list(exact.values),
            "lipschitz_pass": bool(lip.passed),
            "lipschitz_max_ratio": float(lip.max_ratio),
        }

    return verify_op


class CheckFailed(Exception):
    pass


def summarize(w: Workload, case: Case, out) -> dict:
    """The op's output as plain numbers and verdicts (the golden-file form)."""
    if w.entry == "cli":
        if out["exception"] is not None and not isinstance(out["exception"], SystemExit):
            raise CheckFailed(f"raised {out['exception']!r}")
        if out["exit_code"] != 0:
            raise CheckFailed(f"exit code {out['exit_code']}: {out['stderr'].strip()[:200]}")
        try:
            payload = json.loads(out["stdout"])
            allocation = [float(payload["allocation"][str(v)]) for v in range(case.n)]
            return {
                "allocation": allocation,
                "grand_value": float(payload["grand_value"]),
                "alpha": float(payload["alpha"]),
                "lipschitz_bound": float(payload["lipschitz_bound"]),
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"unparseable CLI output: {exc!r}") from exc
    if w.entry == "raw":
        return {"allocation": [float(v) for v in out]}
    return out


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _vector_close(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    diff = math.fsum(abs(a - b) for a, b in zip(got, want))
    return diff <= REL_TOL * math.fsum(abs(b) for b in want)


def _sound(name: str, values: list, nonnegative: bool = True) -> list[str]:
    bad = [v for v in values if not math.isfinite(v) or (nonnegative and v < 0.0)]
    return [f"{name} has {len(bad)} non-finite or negative values"] if bad else []


def reference_value(case: Case, data: dict) -> float:
    """Grand value from an independent solver: networkx's blossom matching or
    scipy's minimum spanning tree (the supply vertex is index n)."""
    if case.kind == "matching":
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(case.n))
        for e in data["edges"]:
            g.add_edge(e["u"], e["v"], weight=e["w"])
        return math.fsum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    n = case.n
    rows = [n if e["u"] == -1 else e["u"] for e in data["edges"]]
    cols = [n if e["v"] == -1 else e["v"] for e in data["edges"]]
    weights = [e["w"] for e in data["edges"]]
    graph = csr_matrix((np.asarray(weights), (rows, cols)), shape=(n + 1, n + 1))
    return math.fsum(minimum_spanning_tree(graph).data.tolist())


def check(w: Workload, case: Case, got: dict, reference: float) -> list[str]:
    """Invariants every op must satisfy, whatever the seed."""
    problems = _sound("allocation", got["allocation"])
    if len(got["allocation"]) != case.n:
        problems.append(f"allocation has {len(got['allocation'])} entries, expected {case.n}")
    total = math.fsum(got["allocation"])
    if w.entry == "raw":
        # Per offset the greedy matching on weights rounded up by at most a
        # factor RAW_BASE pays both endpoints; it is maximal, so
        # MWM <= sum <= 2 * RAW_BASE * MWM, and so is the offset average.
        if not reference * (1 - REL_TOL) <= total <= 2 * RAW_BASE * reference * (1 + REL_TOL):
            problems.append(f"raw total {total!r} outside [{reference!r}, {2 * RAW_BASE * reference!r}]")
        return problems
    grand = got["grand_value"]
    if not _close(total, grand):
        problems.append(f"allocation sums to {total!r}, grand value is {grand!r}")
    if not _close(grand, reference):
        problems.append(f"grand value {grand!r} differs from the reference {reference!r}")
    alpha, bound = (MATCHING_ALPHA, MATCHING_BOUND) if case.kind == "matching" else (TREE_ALPHA, TREE_BOUND)
    if w.entry == "cli":
        if not (_close(got["alpha"], alpha) and _close(got["lipschitz_bound"], bound)):
            problems.append(f"reported factor/bound {got['alpha']!r}/{got['lipschitz_bound']!r}")
        return problems
    # marginal costs in a tree game can be negative, so only matching Shapley values are signed
    problems += _sound("shapley", got["shapley"], nonnegative=case.kind == "matching")
    problems += _sound("exact core point", got["exact_core"] or [], nonnegative=False)
    if not _close(math.fsum(got["shapley"]), grand):
        problems.append("Shapley values do not sum to the grand value")
    if got["exact_core"] is not None and not _close(math.fsum(got["exact_core"]), grand):
        problems.append("exact core point does not sum to the grand value")
    if case.kind == "mst" and got["exact_core"] is None:
        problems.append("spanning-tree games have a nonempty core, exact_core_solve found none")
    if not got["core_pass"]:
        problems.append(f"core_check fails at the paper factor {alpha}")
    if not got["lipschitz_pass"]:
        problems.append(f"lipschitz_scan max ratio {got['lipschitz_max_ratio']!r} exceeds {bound!r}")
    return problems


def compare_golden(got: dict, want: dict) -> list[str]:
    """Vectors match within REL_TOL relative l1, values within REL_TOL, and
    verdicts and the None-ness of the exact core point exactly."""
    problems = []
    for key, gold in want.items():
        value = got.get(key)
        if isinstance(gold, list):
            ok = isinstance(value, list) and _vector_close(value, gold)
        elif isinstance(gold, float):
            ok = isinstance(value, float) and _close(value, gold)
        else:
            ok = value == gold
        if not ok:
            problems.append(f"{key} differs from the golden output")
    return problems


GOLDEN_KEYS = ("allocation", "grand_value", "shapley", "exact_core", "core_pass", "lipschitz_pass")


def golden_form(got: dict) -> dict:
    return {k: got[k] for k in GOLDEN_KEYS if k in got}


def load_golden(w: Workload) -> dict[int, dict]:
    """Golden outputs by instance index, for RECORDED_SEED."""
    with open(GOLDEN_DIR / f"{w.name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    if data["seed"] != RECORDED_SEED:
        raise ValueError(f"golden file for {w.name} was recorded for seed {data['seed']}")
    return {int(k): v for k, v in data["outputs"].items()}
