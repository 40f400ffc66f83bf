"""Self-test: each workload once at the S rung, untraced and traced.

Asserts that ``BENCHMARK.json`` declares exactly the metrics ``run.py``
defines, that every run's last line is the result object with every
declared metric, that stage spans cover at least 95% of every traced
``enrich``, that tracing overhead is printed for every e2e timing, and
that the summary lists every named metric with a value.  Takes about
a minute and a half::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

CORRECT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert e2e == {name: (unit, better) for name, unit, better in run.E2E}, "e2e drift"
    assert per_layer == {
        name: (unit, better) for name, unit, better in run.per_layer_specs()
    }, "per-layer drift"
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)

    output = subprocess.run(
        [sys.executable, run.__file__, "--all", "--rung", "S", "--seconds", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    sys.stdout.write(output.stdout)
    sys.stderr.write(output.stderr)
    assert output.returncode == 0, f"--all exited with {output.returncode}"
    lines = output.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == 2 * len(run.WORKLOADS), f"{len(results)} result lines"
    for position, result in enumerate(results):
        expected = per_layer if position % 2 else e2e
        assert set(result) == CORRECT_KEYS, result.keys()
        assert result["correct"] and result["failed"] == 0, result
        names = set(result["metrics"])
        assert names == set(expected), names ^ set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name][0], name
        if position % 2:
            coverage = result["metrics"]["trace.enrich_coverage"]["value"]
            assert coverage >= 0.95, f"stage spans cover {coverage:.3f} of an enrich"
    for name, workloads, unit, _ in run.NAMED_METRICS:
        if unit in ("s", "ms") and name != "setup_s":
            prefix = f"  tracing overhead {name} "
            printed = sum(line.startswith(prefix) for line in lines)
            assert printed == len(workloads), f"{name} overhead printed {printed}x"
    summary = lines[lines.index("summary (untraced runs):") + 2 :]
    for name, workloads, _, _ in run.NAMED_METRICS:
        for workload in workloads:
            row = next(
                (line for line in summary if line.split()[:2] == [name, workload]), None
            )
            assert row is not None and "missing" not in row, f"{name} on {workload}"
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
