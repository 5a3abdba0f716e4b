"""Record the golden outputs the benchmark checks every run against.

    python3 perfbench/record_golden.py [workload ...]

For each workload, runs the op on every pool instance of RECORDED_SEED,
checks the output's invariants, and writes ``golden/<workload>.json``.
Re-record only when a change is meant to alter the allocations, and say so.
"""

import json
import sys
import tempfile

from run import ROOT, SRC, environment
from workloads import (
    GOLDEN_DIR,
    RECORDED_SEED,
    WORKLOADS,
    check,
    golden_form,
    instance_dict,
    make_op,
    reference_value,
    summarize,
    timed_setup,
)


def record(name: str) -> None:
    w = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        cg, cases, _, _ = timed_setup(w, RECORDED_SEED, SRC, workdir)
        op = make_op(w, cg)
        outputs = {}
        for case in cases:
            got = summarize(w, case, op(case))
            problems = check(w, case, got, reference_value(case, instance_dict(w, case.seed, case.index)))
            if problems:
                raise SystemExit(f"{name} instance {case.index}: {'; '.join(problems)}")
            outputs[str(case.index)] = golden_form(got)
    env = environment()
    data = {"workload": name, "seed": RECORDED_SEED,
            "recorded_from": {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]},
            "outputs": outputs}
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs for {name}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
