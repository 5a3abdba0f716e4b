"""Command-line front end.

Every command prints a JSON payload on stdout and a short human summary
on stderr. Exit codes: 0 success, 1 a verification report failed,
2 malformed input, bad parameters, an input too large for memory or a
path that cannot be read or written. Payloads are deterministic: keys
sorted, floats in shortest round-trip form.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from typing import Iterable

import click

from . import __version__
from .analysis import (
    ALLOCATOR_NAMES,
    CORE_CHECK_MAX_AGENTS,
    core_check,
    iter_core_rows,
    lipschitz_scan,
    named_allocator,
)
from .games import (
    Allocation,
    GameInstance,
    GameKind,
    _json,
    dump_instance,
    load_instance,
    refuse_past,
    validate_instance,
)
from .instances import gen_path_pair_bumped, gen_path_pair_zero_ends, gen_path_uniform, gen_random
from .matching import matching_core_allocate, matching_core_factor, matching_sensitivity_bound
from .mst import MST_CORE_FACTOR, auxiliary_tree, mst_core_allocate, mst_sensitivity_bound
from .oracles import char_table, char_value
from .shapley import shapley_exact, shapley_sample

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(payload: dict, summary: str) -> None:
    # Every echo here names its stream: without one, click.echo caches a
    # wrapper per sys.stdout object for the life of the process, so each
    # in-process run (click.testing.CliRunner swaps sys.stdout) leaks its buffers.
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("a result exceeds the float range")
    click.echo(text, file=sys.stdout)
    click.echo(summary, file=sys.stderr)


def _fail_input(message: str) -> "click.exceptions.Exit":
    click.echo(f"error: {message}", file=sys.stderr)
    return click.exceptions.Exit(EXIT_INPUT_ERROR)


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_checked(path: str) -> GameInstance:
    inst = load_instance(path)
    violations = validate_instance(inst)
    if violations:
        click.echo(json.dumps({"violations": list(violations)}, sort_keys=True), file=sys.stdout)
        raise _fail_input(f"{path}: invalid instance: " + "; ".join(violations))
    return inst


class _Main(click.Group):
    """Exit 2 with one stderr line on bad input in any command: a ValueError
    (the library's signal for bad input), an OSError (a path that cannot be
    read or written) or a MemoryError (an input too large to hold). A
    closed stdout pipe passes through, and click handles it itself."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (ValueError, OSError) as exc:
            raise _fail_input(str(exc))
        except MemoryError as exc:  # Python's own carries no message
            raise _fail_input(str(exc) or "the input is too large for the available memory")


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="coregauge")
def main() -> None:
    """Approximate-core allocations for matching and spanning-tree games."""


@main.command()
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=None, help="Core slack for matching games; required there.")
@click.option("--dump-tree", type=click.Path(dir_okay=False), default=None,
              help="Write the merge dendrogram (offset 0 rounding) to this file; spanning-tree games only.")
def allocate(instance_file: str, epsilon: float | None, dump_tree: str | None) -> None:
    """Compute the stable approximate-core allocation of an instance."""
    inst = _load_checked(instance_file)
    if inst.kind is GameKind.MATCHING:
        if epsilon is None:
            raise ValueError("matching games require --epsilon")
        if dump_tree is not None:
            raise ValueError("--dump-tree applies only to spanning-tree games")
        x = matching_core_allocate(inst, inst.weights, epsilon)
        factor = matching_core_factor(epsilon)
        bound = matching_sensitivity_bound(epsilon)
    else:
        x = mst_core_allocate(inst, inst.weights)
        tree = auxiliary_tree(inst, inst.weights, 0.0) if dump_tree is not None else None
        factor = MST_CORE_FACTOR
        bound = mst_sensitivity_bound()
        if tree is not None:
            with open(dump_tree, "w", encoding="utf-8") as fh:
                json.dump(tree.to_dict(), fh, sort_keys=True)
                fh.write("\n")
    grand = char_value(inst, range(inst.n))
    payload = {
        "allocation": {str(v): x.values[v] for v in range(inst.n)},
        "grand_value": grand,
        "alpha": factor,
        "lipschitz_bound": bound,
    }
    _emit(payload, f"allocated {grand:.6g} over {inst.n} agents (factor {factor:g})")


def _load_allocation(path: str, n: int) -> Allocation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ValueError(f"{path}: {exc}")
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read")
    mapping = data.get("allocation", data) if isinstance(data, dict) else None
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: expected an object with per-agent values")
    values: dict[int, float] = {}
    for key, val in mapping.items():
        try:
            v, x = int(key), float(_json(val, (int, float), "a number"))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{path}: bad allocation entry {key!r}: {val!r}")
        if key != str(v) or not 0 <= v < n or v in values:
            raise ValueError(f"{path}: allocation key {key!r} is not a distinct agent id in 0..{n - 1}")
        if not math.isfinite(x):
            raise ValueError(f"{path}: allocation value of agent {v} is not finite: {val!r}")
        values[v] = x
    missing = [v for v in range(n) if v not in values]
    if missing:
        raise ValueError(f"{path}: no allocation value for agents {missing}")
    return Allocation.of(values[v] for v in range(n))


@main.command("core-check")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("allocation_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=float, required=True, help="Relaxation factor of the coalition constraints.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write one row per coalition to this file.")
def core_check_cmd(instance_file: str, allocation_file: str, alpha: float, csv_path: str | None) -> None:
    """Check an allocation against every relaxed coalition constraint."""
    inst = _load_checked(instance_file)
    # refused before the allocation file is read, which lists every agent missing from it
    refuse_past(inst.n, CORE_CHECK_MAX_AGENTS, "core_check")
    x = _load_allocation(allocation_file, inst.n)
    table = char_table(inst)
    report = core_check(inst, x, alpha, table=table)
    if csv_path:
        rows = iter_core_rows(table, x, alpha)
        _write_csv(csv_path, ["subset", "value", "allocated", "slack"],
                   ([" ".join(map(str, S)), repr(nu), repr(got), repr(slack)] for S, nu, got, slack in rows))
    verdict = "pass" if report.passed else "FAIL"
    _emit(
        report.to_dict(),
        f"core check {verdict}: worst slack {report.worst_slack:.3g} "
        f"on subset {list(report.worst_subset)}, grand residual {report.grand_residual:.3g}",
    )
    if not report.passed:
        raise click.exceptions.Exit(EXIT_CHECK_FAILED)


@main.command("shapley")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["exact", "sample"]), default="exact")
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def shapley_cmd(instance_file: str, method: str, samples: int, seed: int) -> None:
    """Exact or sampled Shapley values of an instance."""
    inst = _load_checked(instance_file)
    if method == "exact":
        x, samples, seed = shapley_exact(inst), None, None
    else:
        x = shapley_sample(inst, samples, seed)
    payload = {
        "allocation": {str(v): x.values[v] for v in range(inst.n)},
        "method": method,
        "samples": samples,
        "seed": seed,
        "total": x.total(),
    }
    _emit(payload, f"shapley ({method}) total {x.total():.6g}")


@main.command("lipschitz")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--allocator", type=click.Choice(ALLOCATOR_NAMES), required=True)
@click.option("--bound", type=float, required=True, help="Claimed sensitivity bound to check against.")
@click.option("--epsilon", type=float, default=None, help="For matching-core.")
@click.option("--base", type=float, default=None, help="Rounding base for matching-raw.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write one row per probe to this file.")
def lipschitz_cmd(
    instance_file: str,
    allocator: str,
    bound: float,
    epsilon: float | None,
    base: float | None,
    csv_path: str | None,
) -> None:
    """Probe an allocator with single-edge weight bumps."""
    inst = _load_checked(instance_file)
    fn = named_allocator(allocator, epsilon=epsilon, base=base)
    report = lipschitz_scan(fn, inst, bound, name=allocator)
    if csv_path:
        _write_csv(csv_path, ["edge_id", "w_e", "delta", "ratio"],
                   ([r.edge_id, repr(r.weight), repr(r.delta), repr(r.ratio)] for r in report.rows))
    verdict = "pass" if report.passed else "FAIL"
    _emit(
        report.to_dict(),
        f"lipschitz {verdict}: max ratio {report.max_ratio:.6g} vs bound {report.claimed_bound:.6g}",
    )
    if not report.passed:
        raise click.exceptions.Exit(EXIT_CHECK_FAILED)


@main.group()
def gen() -> None:
    """Instance generators."""


@gen.command("path")
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
def gen_path(n: int, out: str) -> None:
    """Uniform-weight path (matching game)."""
    dump_instance(gen_path_uniform(n), out)
    _emit({"written": [out]}, f"wrote path n={n} to {out}")


def _dump_pair(pair: tuple[GameInstance, GameInstance], out: str, out_second: str, summary: str) -> None:
    """Write both instances of a pair or neither: when the second file
    cannot be written, the first one, just written, is removed."""
    first, second = pair
    dump_instance(first, out)
    try:
        dump_instance(second, out_second)
    except OSError:
        os.remove(out)
        raise
    _emit({"written": [out, out_second]}, summary)


@gen.command("path-zero-ends")
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.option("--out-second", type=click.Path(dir_okay=False), required=True)
def gen_zero_ends(n: int, out: str, out_second: str) -> None:
    """Uniform path and its copy with both end edges zeroed."""
    _dump_pair(gen_path_pair_zero_ends(n), out, out_second, f"wrote zero-ends pair n={n}")


@gen.command("path-bump")
@click.option("--n", type=int, required=True)
@click.option("--delta", type=float, required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.option("--out-second", type=click.Path(dir_okay=False), required=True)
def gen_bump(n: int, delta: float, out: str, out_second: str) -> None:
    """Uniform path and its copy with the second edge raised by delta."""
    _dump_pair(gen_path_pair_bumped(n, delta), out, out_second, f"wrote bumped pair n={n} delta={delta}")


@gen.command("random")
@click.option("--kind", type=click.Choice(["matching", "mst"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--edge-prob", type=float, default=0.5, show_default=True)
@click.option("--w-max", type=float, default=10.0, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
def gen_random_cmd(kind: str, n: int, edge_prob: float, w_max: float, seed: int, out: str) -> None:
    """Seeded random instance."""
    dump_instance(gen_random(GameKind(kind), n, edge_prob, w_max, seed), out)
    _emit({"written": [out]}, f"wrote random {kind} n={n} seed={seed} to {out}")


if __name__ == "__main__":
    main()
