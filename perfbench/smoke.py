"""Smoke check of the benchmark: one short run per workload and mode.

    python3 perfbench/smoke.py

Runs every workload defined in ``workloads.py`` with ``--seconds 0`` (a
single timed op, or one pass of the fixed op list when traced) at
``--trace 0`` and ``--trace 1``, and asserts that each run is correct and emits exactly the metrics that
BENCHMARK.json names, with their units, plus the detail-only ones.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    *_, detail_line, result_line = proc.stdout.splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for mode, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in spec[mode]}
        for name in sorted(WORKLOADS):
            detail, result = run(name, trace)
            label = f"{name} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
            emitted = {metric: m["unit"] for metric, m in result["metrics"].items()}
            assert emitted == declared, f"{label}: emitted {sorted(emitted)}"
            for metric, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {metric}"
            if trace:
                assert detail["bases"]["absent"] == [], f"{label}: absent {detail['bases']['absent']}"
            else:
                assert {"fail_frac", "op_p90_s"} <= set(detail["metrics"]), label
            print(f"ok {label}: {len(emitted)} metrics, {result['attempted']} ops")


if __name__ == "__main__":
    main()
