#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 10 --seed 3601

Byte-compiles ``src/`` and ``perfbench/`` of both trees first, so that both
import from the same ``__pycache__`` state (the fresh-interpreter import that
``setup_s`` times is 30-40 ms slower without it). Then, for each workload in
turn, runs ``perfbench/run.py --workload <w> --seed <s> --seconds <t>`` once
in each tree per pair, seeds ``--seed``, ``--seed`` + 1, ..., with the parent
first in even pairs and the change first in odd ones. The workloads and the
run length ``<t>`` are the ``workloads`` and ``run_seconds`` of the change's
``BENCHMARK.json``. Prints one JSON object: per workload, the seeds, which
side ran first, whether every op of every run was correct, and per end-to-end
metric of ``BENCHMARK.json`` each side's runs, median and quartiles
(``statistics.quantiles(n=4)``), the number of pairs the change won (a tie
counts for neither side), and two verdicts in the metric's ``better``
direction: ``gain_holds``, when the change won at least 9 of 10 pairs and its
median beats the parent's by more than the parent's quartile distance, and
``within_bound``, when the change's median is no worse than the parent's by
more than the metric's ``bound``, a fraction of the parent's median.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(runs):
    """(q1, median, q3) of a list of numbers, by ``statistics.quantiles(n=4)``."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return q1, median, q3


def summarize(parent, change, better, bound):
    """One metric over paired runs (``parent[i]`` beside ``change[i]``): each
    side's runs, median and quartiles, the pairs the change won, and the
    verdicts of the module docstring, when ``better`` is ``"lower"`` or
    ``"higher"`` and ``bound`` is the metric's allowed relative loss."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    summary = {"pairs": len(parent), "change_wins": wins}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        summary[side] = {"q1": q1, "median": median, "q3": q3, "runs": list(runs)}
    base = summary["parent"]
    gain = sign * (summary["change"]["median"] - base["median"])
    summary["gain_holds"] = 10 * wins >= 9 * len(parent) and gain > base["q3"] - base["q1"]
    summary["within_bound"] = gain >= -bound * abs(base["median"])
    return summary


def run_once(tree, workload, seed, seconds):
    """The last stdout line of one benchmark run in ``tree``, parsed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def compare(trees, workloads, pairs, seed, seconds, metrics):
    """Every workload's pairs, summarised as the module docstring says;
    ``metrics`` maps each metric's name to its (better, bound)."""
    result = {}
    for workload in workloads:
        seeds = [seed + i for i in range(pairs)]
        first = [SIDES[i % 2] for i in range(pairs)]
        runs = {side: [] for side in SIDES}
        for s, lead in zip(seeds, first):
            for side in (lead, *(x for x in SIDES if x != lead)):
                runs[side].append(run_once(trees[side], workload, s, seconds))
                print(f"{workload} seed {s} {side}: "
                      f"{runs[side][-1]['metrics']['op_p50_ms']['value']:.3f} ms",
                      file=sys.stderr)
        result[workload] = {
            "pairs": pairs, "seeds": seeds, "first_side": first,
            "all_ops_correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "metrics": {
                name: summarize(*([r["metrics"][name]["value"] for r in runs[side]]
                                  for side in SIDES), better, bound)
                for name, (better, bound) in metrics.items()
            },
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for part in ("src", "perfbench"):
            compileall.compile_dir(tree / part, quiet=1)
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    result = compare(trees, workloads, args.pairs, args.seed, benchmark["run_seconds"], metrics)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
