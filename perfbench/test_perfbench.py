#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/test_perfbench.py

Checks that:
  * the score checker rejects a perturbed, truncated or NaN score vector
    (perfbench --self-test);
  * every workload, traced and untraced, prints exactly the metrics
    BENCHMARK.json names, with its units, correct and with no failed
    operation, and end-to-end values above zero;
  * a second seed runs clean, and a repeated seed matches the exact-value
    record of its first run;
  * the record is kept per build of the program: a conflicting record left
    by other code is ignored, and a drifted value in this code's record
    fails the run;
  * run.py exits non-zero without a result when the sources are missing.
"""

import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch: no __pycache__ in the tree)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None, proc.stderr
    context = json.loads(lines[-2].split(" ", 1)[1])
    return proc.returncode, json.loads(lines[-1]), context, proc.stderr


def check_result(workload: str, seed: int, trace: int) -> dict:
    rc, result, context, stderr = bench(workload, seed, trace)
    tag = f"{workload} seed={seed} trace={trace}"
    expect(rc == 0 and result is not None, f"{tag}: exits 0 with a result line")
    if result is None:
        print(stderr[-2000:])
        return {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, no failed operation")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{tag}: every named metric printed with its unit")
    if not trace:
        zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
        expect(not zero, f"{tag}: end-to-end values above zero {zero or ''}")
    else:
        expect(result["metrics"]["obs.spans_dropped"]["value"] == 0, f"{tag}: no span dropped")
    if not result["correct"]:
        print(stderr[-2000:])
    return context


def check_exact_record(workload: str) -> None:
    """The exact-value record belongs to the build that wrote it."""
    context = check_result(workload, 3, 0)
    record = run.ROOT / context["exact_record"].split(" ", 1)[1]
    expect(context["code_digest"] == record.parent.name,
           f"{workload}: the exact record is kept under the program's digest")
    lines = record.read_text().splitlines()
    key, value = lines[0].split(" ")
    other = record.parent.parent / ("0" * 16) / record.name
    other.parent.mkdir(parents=True, exist_ok=True)
    other.write_text(f"{key} {value}0\n")
    context = check_result(workload, 3, 0)
    expect(context.get("exact_record", "").startswith("matched"),
           f"{workload}: a conflicting record of other code is ignored")
    shutil.rmtree(other.parent)
    record.write_text("\n".join([f"{key} {value}0"] + lines[1:]) + "\n")
    rc, result, _, _ = bench(workload, 3, 0)
    expect(rc == 0 and result is not None and result["correct"] is False,
           f"{workload}: a drifted exact value fails the run")
    record.unlink()


def main() -> int:
    run.build()
    proc = subprocess.run([str(run.BINARY), "--self-test"], capture_output=True, text=True)
    print(proc.stdout, end="")
    expect(proc.returncode == 0, "checker rejects perturbed score vectors")

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, 1, trace)
        context = check_result(workload, 1, 0)
        expect(context.get("exact_record", "").startswith("matched"),
               f"{workload}: a repeated seed matches the exact-value record")
        check_result(workload, 2, 0)
    check_exact_record("serve-churn")

    lonely = run.BUILD / "test-lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    lonely.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
    shutil.copytree(run.ROOT / "perfbench", lonely / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lonely, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the sources run.py fails and prints no result")
    shutil.rmtree(lonely, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
