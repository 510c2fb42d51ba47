#!/usr/bin/env python3
"""A/B comparison of two revisions on the repo benchmark (perfbench/).

    python3 tools/ab.py <parent-rev> <change-rev> [--workload W ...] [--seeds 301-310]
                        [--seconds 34] [--trace 0|1] [--workdir DIR] [--log FILE]

Each revision is exported with `git archive` into its own directory under
--workdir (reused on later calls, so each side builds its .bench_build/
once). Both are built before any run. For every seed and workload the two
sides run `perfbench/run.py` back to back, and the side that goes first
alternates from pair to pair, because the machine's speed drifts.

The summary gives, per workload and metric, each side's median and
quartiles, the change's wins/losses/ties over the pairs, and a verdict:

  gain        the change is better in at least 9/10 of the pairs, and the
              medians differ by more than the parent's interquartile range;
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  a side's spread, (Q3 - Q1) / median, exceeds the bound, and
              not every run of the change beats every run of the parent;
  ok          none of the above (or "-" for a metric without a bound).

It also counts correct runs and failed operations per side, and lists the
keys of the perfbench-exact records that differ between the two builds for
the same workload and seed. Exits 1 on a regression, an unresolved metric,
an incorrect or failed run, or an exact-record difference.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_output(stdout: str):
    """(context, result) from perfbench's last two stdout lines, or (None, None)."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("context "):
        return None, None
    try:
        return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, None


def read_exact(path: Path) -> dict:
    """The key/value pairs of a perfbench-exact record."""
    pairs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            key, value = line.split(" ", 1)
            pairs[key] = value
    return pairs


def exact_diff(parent: dict, change: dict) -> list:
    """Keys whose exact values differ, or that one record lacks."""
    return sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))


def quartiles(values: list) -> tuple:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list, change: list, better: str, bound) -> tuple:
    """(verdict, wins, losses, ties) of the change over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: the change is better
    wins = sum(g > 0 for g in gaps)
    losses = sum(g < 0 for g in gaps)
    ties = len(gaps) - wins - losses
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if wins >= 0.9 * len(gaps) and sign * (pmed - cmed) > pq3 - pq1:
        return "gain", wins, losses, ties
    if bound is None:
        return "-", wins, losses, ties
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "REGRESSION", wins, losses, ties
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", wins, losses, ties
    return "ok", wins, losses, ties


def fmt(x: float) -> str:
    return f"{x:.4g}"


def summarize(spec: dict, runs: list, trace: int) -> tuple:
    """Summary lines over `runs`, and whether anything failed the comparison.

    Each run is a dict: side ("parent"/"change"), workload, seed, result
    (perfbench's JSON result or None) and exact (the record's pairs or None).
    """
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    lines, bad = [], False
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["side"], r["seed"]): r for r in mine}
        lines.append(f"== {workload}: {len(seeds)} pair(s), seeds {', '.join(map(str, seeds))}")
        for side in SIDES:
            side_runs = [by[(side, s)] for s in seeds if (side, s) in by]
            results = [r["result"] for r in side_runs if r["result"] is not None]
            correct = sum(res["correct"] is True for res in results)
            failed = sum(res["failed"] for res in results)
            attempted = sum(res["attempted"] for res in results)
            lines.append(f"   {side}: {correct}/{len(side_runs)} runs correct, "
                         f"{failed} of {attempted} operations failed")
            bad = bad or correct < len(side_runs) or failed > 0
        paired = [s for s in seeds
                  if all(by.get((side, s)) and by[(side, s)]["result"] for side in SIDES)]
        lines.append(f"   {'metric':32} {'parent median [Q1, Q3]':30} "
                     f"{'change median [Q1, Q3]':30} {'ratio':>6} {'w/l/t':>8} "
                     f"{'bound':>5}  verdict")
        for m in metrics:
            name = m["name"]
            p = [by[("parent", s)]["result"]["metrics"][name]["value"] for s in paired
                 if name in by[("parent", s)]["result"]["metrics"]]
            c = [by[("change", s)]["result"]["metrics"][name]["value"] for s in paired
                 if name in by[("change", s)]["result"]["metrics"]]
            if not p or len(p) != len(c):
                lines.append(f"   {name:32} missing")
                bad = True
                continue
            v, wins, losses, ties = verdict(p, c, m["better"], m.get("bound"))
            bad = bad or v in ("REGRESSION", "unresolved")
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            ratio = f"{cmed / pmed:.3f}" if pmed else "-"
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            lines.append(f"   {name:32} {fmt(pmed) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':30} "
                         f"{fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':30} "
                         f"{ratio:>6} {f'{wins}/{losses}/{ties}':>8} {bound:>5}  {v}")
        diffs = []
        for s in seeds:
            pe, ce = by.get(("parent", s), {}).get("exact"), by.get(("change", s), {}).get("exact")
            keys = ["record missing"] if pe is None or ce is None else exact_diff(pe, ce)
            if keys:
                diffs.append(f"seed {s}: {' '.join(keys)}")
        bad = bad or bool(diffs)
        lines.append("   exact records: " + ("; ".join(diffs) if diffs else
                                             f"identical for {len(seeds)} seed(s)"))
    return lines, bad


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, workdir: Path) -> Path:
    """Extracts `rev` with git archive into workdir/<sha>, once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    dest = workdir / sha
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", sha], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def build(checkout: Path) -> None:
    """Builds the checkout's benchmark with its own run.py."""
    code = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, 'perfbench'); "
            "import run; run.build()")
    subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True, stdout=sys.stderr)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    context, result = parse_output(proc.stdout)
    exact = None
    if context and " " in context.get("exact_record", ""):
        record = checkout / context["exact_record"].split(" ", 1)[1]
        exact = read_exact(record) if record.is_file() else None
    if proc.returncode != 0 or result is None:
        print(proc.stderr[-2000:], file=sys.stderr)
    return {"workload": workload, "seed": seed, "result": result, "exact": exact}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="301-310", help="e.g. 301-310 or 301,305")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=Path(tempfile.gettempdir()) / "mrbc-ab")
    parser.add_argument("--log", type=Path, help="append every run as a JSON line")
    args = parser.parse_args()

    sides = {"parent": export(args.parent, args.workdir),
             "change": export(args.change, args.workdir)}
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for side, checkout in sides.items():
        print(f"ab: {side} {checkout}", flush=True)
        build(checkout)

    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for j, workload in enumerate(workloads):
            # Alternates from seed to seed within a workload, and across
            # the workloads of one seed.
            order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(sides[side], workload, seed, seconds, args.trace)
                run["side"] = side
                runs.append(run)
                if args.log:
                    with args.log.open("a") as log:
                        log.write(json.dumps(run) + "\n")
                res = run["result"]
                state = (f"correct={res['correct']} failed={res['failed']}" if res else "no result")
                print(f"ab: {workload} seed {seed} {side}: {state}", flush=True)

    lines, bad = summarize(spec, runs, args.trace)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
