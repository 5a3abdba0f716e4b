"""Bit-identity check of this tree's coregauge against another checkout.

Usage:
    python3 tools/bitcheck.py PARENT_DIR

PARENT_DIR is a checkout of the commit to compare with (a ``git worktree``
or an unpacked ``git archive``); its package is imported from
``PARENT_DIR/src``. A fixed seeded corpus of spanning-tree games, of
matching games and of weight pairs runs through named public functions
twice, in one subprocess on this tree's ``src`` and in one on
``PARENT_DIR/src``. Every name of ``analysis.ALLOCATOR_NAMES`` runs on
every game too, through ``named_allocator`` (the two exponential ones,
``shapley`` and ``exact-core``, on games of at most TABLE_MAX_AGENTS
agents), so a name added to or dropped from the table shows as a corpus
mismatch. Per function the report gives:

- identical: both return the same output, every float equal as ``float.hex``
  (and a dendrogram the same nodes);
- differ: both return an output but they differ, with the largest relative
  l1 distance (``inf`` when a dendrogram's structure differs);
- refusals added: the parent returns an output and this tree raises;
- refusals lifted: the parent raises and this tree returns an output;
- both refuse: both raise, and how many of those with another message.

The corpus (TREE_GAMES tree games, MATCHING_GAMES matching games,
WEIGHT_PAIRS weight pairs) uses only the stdlib's seeded ``random.Random``,
so it is the same in both subprocesses and does not depend on the
package's own generators.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"

TREE_GAMES = 2000
MATCHING_GAMES = 1000
WEIGHT_PAIRS = 6000
OFFSETS = (0.0, 0.25, 0.81, 1.0)
TABLE_MAX_AGENTS = 10
SAMPLED_ORDERINGS = 200
PAIR_BASES = (1.01, 1.1, 1.5, 2.0)
FAMILIES = ("float", "integer", "power-of-two", "scaled", "near-max")
REFUSED_MATCHING_AGENTS = 21  # one matching game in ten, past matching_core_allocate's limit
EXPONENTIAL_ALLOCATORS = ("shapley", "exact-core")
NAMED_EPSILON, NAMED_BASE = 0.25, 1.5


def _family_weights(rng: random.Random, family: str, count: int) -> list[float]:
    if family == "float":
        return [rng.uniform(0.0, 10.0) for _ in range(count)]
    if family == "integer":  # ties and zeros
        return [float(rng.randint(0, 4)) for _ in range(count)]
    if family == "power-of-two":
        return [2.0 ** rng.randint(-6, 6) for _ in range(count)]
    if family == "scaled":
        scale = 10.0 ** rng.choice((300, -300))
        return [rng.uniform(0.0, 10.0) * scale for _ in range(count)]
    return [rng.uniform(0.3, 1.0) * sys.float_info.max for _ in range(count)]


def tree_games(count: int):
    """Seeded spanning-tree games as (n, [(u, v, w)]), n from 1 to 64, with
    the weight family cycling through FAMILIES (every other game has at
    most TABLE_MAX_AGENTS agents). About one game in ten drops a supply
    edge, so that some of them leave an agent the supply cannot reach."""
    for index in range(count):
        rng = random.Random(f"bitcheck-tree-{index}")
        n = rng.randint(1, TABLE_MAX_AGENTS) if index % 2 else rng.randint(1, 64)
        prob = rng.uniform(0.05, 0.6)
        pairs = [(-1, v) for v in range(n)]
        if rng.random() < 0.1:
            del pairs[rng.randrange(n)]
        pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
        weights = _family_weights(rng, FAMILIES[index // 2 % len(FAMILIES)], len(pairs))
        yield n, [(u, v, w) for (u, v), w in zip(pairs, weights)]


def matching_games(count: int):
    """Seeded matching games as (n, [(u, v, w)]), n from 1 to 20 (every
    other game has at most TABLE_MAX_AGENTS agents, and one in ten has
    REFUSED_MATCHING_AGENTS), with the weight family cycling through FAMILIES."""
    for index in range(count):
        rng = random.Random(f"bitcheck-matching-{index}")
        n = rng.randint(1, TABLE_MAX_AGENTS) if index % 2 else rng.randint(1, 20)
        if index % 10 == 0:
            n = REFUSED_MATCHING_AGENTS
        prob = rng.uniform(0.05, 0.6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
        weights = _family_weights(rng, FAMILIES[index // 2 % len(FAMILIES)], len(pairs))
        yield n, [(u, v, w) for (u, v), w in zip(pairs, weights)]


def weight_pairs(count: int):
    """Seeded (w_before, w_after, base) triples: ordinary weights and small
    bumps, subnormals, weights near the float maximum, zeros, and
    neighbouring subnormals, whose levels can round to one subnormal."""
    for index in range(count):
        rng = random.Random(f"bitcheck-pair-{index}")
        base = PAIR_BASES[index % len(PAIR_BASES)]
        kind = index // len(PAIR_BASES) % 5
        if kind == 4:
            w = 5e-324 * rng.randint(1, 200)
            yield w, w + 5e-324 * rng.randint(0, 3), base
            continue
        if kind == 0:
            w = math.exp(rng.uniform(-20.0, 20.0))
        elif kind == 1:
            w = 5e-324 * rng.randint(1, 4000)
        elif kind == 2:
            w = sys.float_info.max * rng.uniform(0.3, 1.0)
        else:
            w = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 3.0)
        other = rng.choice([0.0, w, w * rng.uniform(1.0, 2.5), w * rng.uniform(0.4, 1.0),
                            5e-324 * rng.randint(1, 4000), rng.uniform(0.0, 3.0)])
        yield w, min(other, sys.float_info.max), base


def subsets(index: int, n: int) -> list:
    """The grand coalition of an n-agent game and two seeded subsets of it."""
    rng = random.Random(f"bitcheck-subsets-{index}")
    return [range(n)] + [[v for v in range(n) if rng.random() < 0.5] for _ in range(2)]


def _run(src: str, out_path: str) -> None:
    """Run the corpus on the package under ``src``; one JSON line per case:
    [function, case id, ["ok", structure, float hexes] or ["err", message]]."""
    sys.path.insert(0, src)
    import coregauge
    from coregauge.analysis import ALLOCATOR_NAMES, named_allocator
    from coregauge.games import ROOT, Edge, GameInstance, GameKind
    from coregauge.matching import greedy_allocate, integrate_matching, matching_core_allocate
    from coregauge.mst import auxiliary_tree, integrate_mst, mst_allocate, mst_core_allocate
    from coregauge.oracles import coalition_values, grand_matching_value, max_weight_matching, mst_weight
    from coregauge.rounding import breakpoints, differing_offset_measure, round_weights
    from coregauge.shapley import shapley_sample

    if Path(coregauge.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported coregauge from {coregauge.__file__}, not from {src}")

    def dendrogram(tree):
        structure = [[node.id, list(node.children), node.leaf, node.agent_mask, node.has_supply]
                     for node in tree.nodes]
        return structure, [node.height for node in tree.nodes]

    def floats(values):
        return None, list(values)

    def greedy(trace):
        return list(trace.matching), trace.raw

    def game(kind, n, edges):
        return GameInstance(kind, n, tuple(Edge(i, ROOT if u == -1 else u, v) for i, (u, v, _) in enumerate(edges)),
                            tuple(w for _, _, w in edges))

    with open(out_path, "w", encoding="utf-8") as out:
        def emit(name, case, call, encode):
            try:
                structure, values = encode(call())
                record = ["ok", structure, [float(x).hex() for x in values]]
            except (ValueError, OverflowError) as exc:
                record = ["err", f"{type(exc).__name__}: {exc}"]
            out.write(json.dumps([name, case, record]) + "\n")

        def named(label, inst, index):
            for name in ALLOCATOR_NAMES:
                if inst.n <= TABLE_MAX_AGENTS or name not in EXPONENTIAL_ALLOCATORS:
                    allocate = named_allocator(name, epsilon=NAMED_EPSILON, base=NAMED_BASE)
                    emit(f"named {name}{label}", index, lambda: allocate(inst), floats)

        for index, (n, edges) in enumerate(tree_games(TREE_GAMES)):
            inst = game(GameKind.MIN_SPANNING_TREE, n, edges)
            w = inst.weights
            emit("auxiliary_tree", index, lambda: auxiliary_tree(inst, w), dendrogram)
            for b in OFFSETS:
                emit(f"auxiliary_tree b={b}", index, lambda: auxiliary_tree(inst, w, b), dendrogram)
                emit(f"mst_allocate b={b}", index, lambda: mst_allocate(inst, w, b).values, floats)
            emit("integrate_mst", index, lambda: integrate_mst(inst, w).values, floats)
            emit("mst_core_allocate", index, lambda: mst_core_allocate(inst, w).values, floats)
            for k, subset in enumerate(subsets(index, n)):
                emit("mst_weight", f"{index}.{k}", lambda: [mst_weight(inst, subset)], floats)
            if n <= TABLE_MAX_AGENTS:
                emit("coalition_values", index, lambda: coalition_values(inst, w), floats)
                emit("shapley_sample", index, lambda: shapley_sample(inst, SAMPLED_ORDERINGS, index).values, floats)
            named("", inst, index)
        for index, (n, edges) in enumerate(matching_games(MATCHING_GAMES)):
            inst = game(GameKind.MATCHING, n, edges)
            w = inst.weights
            for base in PAIR_BASES:
                emit(f"breakpoints base={base}", index, lambda: breakpoints(w, base).points, floats)
                for b in OFFSETS:
                    emit(f"round_weights base={base} b={b}", index, lambda: round_weights(w, b, base), floats)
                    emit(f"greedy_allocate base={base} b={b}", index, lambda: greedy_allocate(inst, w, b, base), greedy)
                emit(f"integrate_matching base={base}", index, lambda: integrate_matching(inst, w, base).values, floats)
            for eps in (0.05, 0.25):
                emit(f"matching_core_allocate eps={eps}", index,
                     lambda: matching_core_allocate(inst, w, eps).values, floats)
            emit("grand_matching_value", index, lambda: [grand_matching_value(inst, w)], floats)
            for k, subset in enumerate(subsets(index, n)):
                emit("max_weight_matching", f"{index}.{k}", lambda: [max_weight_matching(inst, subset)], floats)
            if n <= TABLE_MAX_AGENTS:
                emit("coalition_values matching", index, lambda: coalition_values(inst, w), floats)
                emit("shapley_sample matching", index,
                     lambda: shapley_sample(inst, SAMPLED_ORDERINGS, index).values, floats)
            named(" matching", inst, index)
        for index, (before, after, base) in enumerate(weight_pairs(WEIGHT_PAIRS)):
            emit("differing_offset_measure", index,
                 lambda: [differing_offset_measure(before, after, base)], floats)


def _relative_l1(old: list[str], new: list[str]) -> float:
    a = [float.fromhex(x) for x in old]
    b = [float.fromhex(x) for x in new]
    if len(a) != len(b):
        return math.inf
    gap = math.fsum(abs(x - y) for x, y in zip(a, b))
    norm = math.fsum(abs(x) for x in a)
    return gap / norm if norm else math.inf


def compare(parent_dir: str) -> int:
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        paths = {}
        for label, src in (("parent", str(Path(parent_dir).resolve() / "src")), ("here", str(HERE_SRC))):
            paths[label] = os.path.join(tmp, f"{label}.jsonl")
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            subprocess.run([sys.executable, __file__, "--run", src, paths[label]], check=True, env=env)
        stats: dict[str, dict] = {}
        with open(paths["parent"], encoding="utf-8") as old_lines, open(paths["here"], encoding="utf-8") as new_lines:
            for old_line, new_line in zip(old_lines, new_lines, strict=True):
                name, case, old = json.loads(old_line)
                name_here, case_here, new = json.loads(new_line)
                if (name, case) != (name_here, case_here):
                    raise SystemExit(f"corpus mismatch: {name} {case} against {name_here} {case_here}")
                row = stats.setdefault(name, {"cases": 0, "identical": 0, "differ": 0, "max_rel_l1": 0.0,
                                              "added": 0, "lifted": 0, "both": 0, "other_message": 0})
                row["cases"] += 1
                if old[0] == "err" or new[0] == "err":
                    if old[0] == new[0]:
                        row["both"] += 1
                        row["other_message"] += old[1] != new[1]
                    else:
                        row["added" if new[0] == "err" else "lifted"] += 1
                    continue
                if old == new:
                    row["identical"] += 1
                    continue
                row["differ"] += 1
                gap = math.inf if old[1] != new[1] else _relative_l1(old[2], new[2])
                row["max_rel_l1"] = max(row["max_rel_l1"], gap)
    print(f"{'function':38} {'cases':>6} {'identical':>9} {'differ':>6} {'max rel l1':>10} "
          f"{'refusals added':>14} {'lifted':>6} {'both refuse':>11} {'other msg':>9}")
    for name, row in stats.items():
        gap = f"{row['max_rel_l1']:.2e}" if row["differ"] else "-"
        print(f"{name:38} {row['cases']:>6} {row['identical']:>9} {row['differ']:>6} {gap:>10} "
              f"{row['added']:>14} {row['lifted']:>6} {row['both']:>11} {row['other_message']:>9}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", nargs="?", help="checkout of the commit to compare with")
    parser.add_argument("--run", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        _run(args.run[0], args.run[1])
        return 0
    if not args.parent_dir:
        parser.error("PARENT_DIR is required")
    return compare(args.parent_dir)


if __name__ == "__main__":
    sys.exit(main())
