#!/usr/bin/env python3
"""Tests of tools/ab.py's parsing, verdicts and summary on canned result
lines; nothing is built or run (under a second).

    python3 tools/test_ab.py
"""

import json
import sys

sys.dont_write_bytecode = True
import ab  # noqa: E402  (after the bytecode switch: no __pycache__ in the tree)

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def canned(values: dict, correct: bool = True, failed: int = 0) -> str:
    """perfbench stdout: build noise, a context line, then the result line."""
    context = {"seed": "301", "exact_record": "matched .bench_build/perfbench-exact/x/w.txt"}
    result = {"correct": correct, "attempted": 40, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return "[100%] Built target perfbench\ncontext " + json.dumps(context) + "\n" + \
        json.dumps(result) + "\n"


def test_parse() -> None:
    context, result = ab.parse_output(canned({"sbbc_s": 0.35}))
    expect(context["seed"] == "301" and result["metrics"]["sbbc_s"]["value"] == 0.35,
           "parse_output reads the context and result lines")
    expect(ab.parse_output("build failed\n") == (None, None), "no result line parses to None")
    expect(ab.parse_output("context {\n{}") == (None, None), "a broken JSON line parses to None")
    expect(ab.parse_seeds("301-303,307") == [301, 302, 303, 307], "seed ranges and lists")


def test_verdicts() -> None:
    parent = [0.35, 0.34, 0.36, 0.33, 0.37, 0.35, 0.36, 0.34, 0.35, 0.38]
    v = ab.verdict(parent, [p * 0.3 for p in parent], "lower", 0.24)
    expect(v == ("gain", 10, 0, 0), f"10/10 wins far beyond the IQR is a gain {v}")
    change = [p * 0.3 for p in parent[:8]] + [p * 1.01 for p in parent[8:]]
    v = ab.verdict(parent, change, "lower", 0.24)
    expect(v[0] != "gain" and v[1:] == (8, 2, 0), f"8/10 wins is not a gain {v}")
    change = [p - 0.001 for p in parent]
    v = ab.verdict(parent, change, "lower", 0.24)
    expect(v == ("ok", 10, 0, 0), f"10/10 wins inside the parent's IQR is not a gain {v}")
    v = ab.verdict(parent, [p * 1.3 for p in parent], "lower", 0.24)
    expect(v[0] == "REGRESSION", f"a median 1.3x worse than a 0.24 bound regresses {v}")
    v = ab.verdict(parent, [p * 1.2 for p in parent], "lower", 0.24)
    expect(v[0] == "ok", f"a median 1.2x worse is within a 0.24 bound {v}")
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    v = ab.verdict(wide, list(reversed(wide)), "lower", 0.24)
    expect(v[0] == "unresolved", f"a spread wider than the bound is unresolved {v}")
    v = ab.verdict(wide, [0.95] * 10, "lower", 0.24)
    expect(v[0] == "ok", f"a wide spread where every change run beats every parent run {v}")
    v = ab.verdict([0.1] * 10, [0.1] * 10, "lower", 0.1)
    expect(v == ("ok", 0, 0, 10), f"exact-equal values tie in every pair {v}")
    v = ab.verdict(parent, parent, "lower", None)
    expect(v[0] == "-", f"a metric without a bound gets no bound verdict {v}")
    v = ab.verdict(parent, [p * 3 for p in parent], "higher", 0.24)
    expect(v[0] == "gain", f"higher is better: a 3x rise is a gain {v}")
    v = ab.verdict(parent, [p * 0.7 for p in parent], "higher", 0.24)
    expect(v[0] == "REGRESSION", f"higher is better: a 0.7x fall regresses {v}")


def test_summary() -> None:
    spec = {"end_to_end": [{"name": "sbbc_s", "better": "lower", "bound": 0.24},
                           {"name": "sbbc_net_s", "better": "lower", "bound": 0.24}]}
    runs = []
    exact = {"sbbc.bytes": "100", "sbbc.rounds": "7"}
    for i, seed in enumerate(range(301, 311)):
        for side, scale in (("parent", 1.0), ("change", 0.3)):
            _, result = ab.parse_output(canned({"sbbc_s": (0.35 + 0.001 * i) * scale,
                                                "sbbc_net_s": 0.1}))
            runs.append({"side": side, "workload": "batch-longtail", "seed": seed,
                         "result": result, "exact": dict(exact)})
    lines, bad = ab.summarize(spec, runs, 0)
    text = "\n".join(lines)
    expect(not bad, "a clean gain summarizes without failing")
    expect("10 pair(s)" in text and "10/10 runs correct, 0 of 400 operations failed" in text,
           "pairs, correct runs and failed operations are counted")
    sbbc = next(line for line in lines if line.strip().startswith("sbbc_s "))
    expect(sbbc.rstrip().endswith("gain") and "10/0/0" in sbbc and "0.300" in sbbc,
           f"sbbc_s row: ratio, wins and verdict [{sbbc.strip()}]")
    net = next(line for line in lines if line.strip().startswith("sbbc_net_s"))
    expect("0/0/10" in net and net.rstrip().endswith("ok"), f"sbbc_net_s ties [{net.strip()}]")
    expect("exact records: identical for 10 seed(s)" in text, "identical exact records")

    runs[-1]["exact"]["sbbc.bytes"] = "101"
    runs[-3]["exact"].pop("sbbc.rounds")
    runs[-1]["result"]["correct"] = False
    lines, bad = ab.summarize(spec, runs, 0)
    text = "\n".join(lines)
    expect(bad, "an incorrect run or an exact difference fails the comparison")
    expect("change: 9/10 runs correct" in text, "an incorrect run is counted")
    expect("seed 309: sbbc.rounds" in text and "seed 310: sbbc.bytes" in text,
           "differing and missing exact keys are listed per seed")

    runs[-1]["result"] = None
    lines, bad = ab.summarize(spec, runs, 0)
    sbbc = next(line for line in lines if line.strip().startswith("sbbc_s "))
    expect(bad and "9/0/0" in sbbc and "change: 9/10 runs correct" in "\n".join(lines),
           f"a run without a result drops its pair and counts as not correct [{sbbc.strip()}]")


def main() -> int:
    test_parse()
    test_verdicts()
    test_summary()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
