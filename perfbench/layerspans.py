"""Layer spans for the traced benchmark run, recorded from the benchmark's
own files.

``Tracer.install`` replaces every public function of the coregauge modules,
by dotted name (``mst.auxiliary_tree``), with a timing wrapper in every
coregauge module that holds a reference to it, so that a call through a
re-export or a ``from .x import f`` goes through the wrapper too. CLI
commands are traced through their click callback. Spans nest on one
stack: a span's self time is its duration minus the durations of the spans
it directly contains. Spans are aggregated per name as they close rather
than kept one by one, because the hot layers close ~10^3 spans per op.

Useful-work counts come from fingerprinting return values: the
breakpoint decomposition, the dendrogram's child structure and the greedy
matching. A traced name that a later version of coregauge no longer has is
reported as absent; a fingerprint whose return value changed shape is
reported as unavailable.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "games", "rounding", "matching", "mst", "oracles", "analysis", "exactlp", "shapley")

# Leaf helpers called once per edge per offset interval (~10^6 times per op on
# tree-n64): a wrapper would cost more than their bodies, so their time stays
# in the caller's self time.
UNTRACED = frozenset({"rounding.rounding_exponent"})

# Names the benchmark reports even when they are missing from the program.
REPORTED = (
    "cli.allocate", "games.load_instance", "games.validate_instance",
    "rounding.round_weights", "rounding.breakpoints",
    "mst.auxiliary_tree", "mst.mst_allocate", "mst.integrate_mst",
    "matching.greedy_allocate", "matching.integrate_matching", "matching.normalize_welfare",
    "oracles.max_weight_matching", "oracles.mst_weight", "oracles.char_value", "oracles.char_table",
    "analysis.core_check", "analysis.lipschitz_scan", "analysis.exact_core_solve",
    "exactlp.solve_feasible", "shapley.shapley_exact",
)

GRAND_ORACLES = ("oracles.max_weight_matching", "oracles.mst_weight")
OBSERVED = ("rounding.breakpoints", "mst.auxiliary_tree", "matching.greedy_allocate",
            "analysis.lipschitz_scan") + GRAND_ORACLES


def _public_functions(module, layer: str):
    """(dotted name, holder, attribute) of each public function defined in
    ``module``; a click command is traced through its callback."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        callback = getattr(obj, "callback", None)
        if not inspect.isfunction(obj) and inspect.isfunction(callback):
            if callback.__module__ == module.__name__:
                yield f"{layer}.{attr}", obj, "callback"
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{attr}", module, attr


class Tracer:
    """Per-name span aggregates and useful-work counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self.unavailable: set[str] = set()
        self.counts = {"intervals": 0, "grand_calls": 0, "probes": 0}
        self.per_op: list[dict] = []
        self._seen = (0, 0)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._dendrograms: set = set()
        self._matchings: set = set()

    # -- fingerprints -------------------------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        try:
            if name == "rounding.breakpoints":
                self.counts["intervals"] += len(result.points) - 1
            elif name == "mst.auxiliary_tree":
                self._dendrograms.add(tuple(node.children for node in result.nodes))
            elif name == "matching.greedy_allocate":
                self._matchings.add(tuple(result.matching))
            elif name == "analysis.lipschitz_scan":
                self.counts["probes"] += len(result.rows)
            elif name in GRAND_ORACLES:
                inst, members = args[0], args[1]
                if set(members) == set(range(inst.n)):
                    self.counts["grand_calls"] += 1
        except (AttributeError, TypeError, IndexError):
            self.unavailable.add(name)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observed = name in OBSERVED
        materialize = name in GRAND_ORACLES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize and len(args) > 1 and not isinstance(args[1], (range, set, frozenset, list, tuple)):
                args = (args[0], tuple(args[1])) + args[2:]  # an iterator can be read only once
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                span[0] += 1
                span[1] += duration
                span[2] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if observed:
                self._observe(name, args, result)
                if stack:  # keep the fingerprinting out of the caller's self time
                    stack[-1] += clock() - end
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules of ``package``."""
        holders = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        found = set()
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            for name, holder, attr in _public_functions(module, layer):
                if name in UNTRACED:
                    continue
                found.add(name)
                original = getattr(holder, attr)
                wrapper = self._wrap(name, original)
                if attr == "callback":
                    self._patch(holder, attr, wrapper)
                    continue
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        self.absent = [name for name in REPORTED if name not in found]

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def end_op(self) -> None:
        """Close one op: record its distinct fingerprints against its builds."""
        builds, greedy = self._calls("mst.auxiliary_tree"), self._calls("matching.greedy_allocate")
        self.per_op.append({
            "distinct_dendrograms": len(self._dendrograms), "tree_builds": builds - self._seen[0],
            "distinct_matchings": len(self._matchings), "greedy_runs": greedy - self._seen[1],
        })
        self._seen = (builds, greedy)
        self._dendrograms.clear()
        self._matchings.clear()

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics per op, and the bases the counts rest on."""
        ops = max(len(self.per_op), 1)
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            calls, _, self_s = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.self_s"] = (self_s / ops, "s")
        builds, greedy = self._calls("mst.auxiliary_tree"), self._calls("matching.greedy_allocate")
        dendrograms = sum(op["distinct_dendrograms"] for op in self.per_op)
        matchings = sum(op["distinct_matchings"] for op in self.per_op)
        c = self.counts
        out["rounding.intervals"] = (c["intervals"] / ops, "count")
        out["mst.distinct_dendrograms"] = (dendrograms / ops, "count")
        out["mst.useful_ratio"] = (dendrograms / builds if builds else 0.0, "ratio")
        out["matching.distinct_matchings"] = (matchings / ops, "count")
        out["matching.useful_ratio"] = (matchings / greedy if greedy else 0.0, "ratio")
        out["oracles.grand_calls_per_op"] = (c["grand_calls"] / ops, "count")
        out["analysis.lipschitz_scan.probes"] = (c["probes"] / ops, "count")
        bases = {
            "ops": len(self.per_op),
            "rounding.intervals": {"intervals": c["intervals"], "ops": ops},
            "mst.useful_ratio": {"distinct_dendrograms": dendrograms, "builds": builds},
            "matching.useful_ratio": {"distinct_matchings": matchings, "greedy_runs": greedy},
            "oracles.grand_calls_per_op": {"grand_calls": c["grand_calls"], "ops": ops},
            "analysis.lipschitz_scan.probes": {"probes": c["probes"], "ops": ops},
            "per_op": self.per_op,
            "absent": self.absent,
            "unavailable": sorted(self.unavailable),
            "spans": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for name, s in sorted(self.spans.items())},
        }
        return out, bases
