"""Paired before/after runs of the WLP-decision benchmark, as BENCH_<n>.json.

    python3 tools/bench_pairs.py --base-tree DIR --out BENCH_<n>.json \
        --first-seed SEED [--workload NAME ...]

DIR is a checkout of the revision to compare against (for instance a
``git clone`` of this repository at the parent commit). For each workload
and each of the PAIRS seeds from SEED on, ``wlpbench/run.py`` runs for its
default length once in DIR and once in this tree, the two alternating
which goes first, so that a drift of the host's speed falls on both sides. The output holds both sides' git SHAs, sha256 of
``src/lefschetz/*.py`` and whether the sources differ from the named
commit, the Python version and ``nproc``, each run's
metrics (each a median over that run's passes), the medians over runs, the
parent's interquartile range, how many pairs the change won per metric, and
the verdict payload digests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a gain is claimed on at least nine of ten pairs
PAIRS = 10
LOWER_IS_BETTER = {"setup_s", "decision_p50_ms", "decision_tail_ms",
                   "peak_rss_mb"}


def run(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "wlpbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=True)
    *_, detail, line = proc.stdout.strip().splitlines()
    detail, line = json.loads(detail)["detail"], json.loads(line)
    return {"seed": seed, "correct": line["correct"], "failed": line["failed"],
            "metrics": {k: m["value"] for k, m in line["metrics"].items()},
            "payload_sha256": detail["check"]["payload_sha256"],
            "git_sha": detail["git_sha"], "src_sha256": detail["src_sha256"],
            "python": detail["python"], "nproc": detail["nproc"]}


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4)[::2] if len(values) > 1 \
        else [values[0], values[0]]


def summarize(pairs: list) -> dict:
    names = pairs[0]["parent"]["metrics"]
    out = {"median": {}, "parent_iqr": {}, "change_wins": {}}
    for name in names:
        a = [p["parent"]["metrics"][name] for p in pairs]
        b = [p["change"]["metrics"][name] for p in pairs]
        sign = -1 if name in LOWER_IS_BETTER else 1
        out["median"][name] = {"parent": statistics.median(a),
                               "change": statistics.median(b)}
        out["parent_iqr"][name] = quartiles(a)
        out["change_wins"][name] = (
            f"{sum(sign * (y - x) > 0 for x, y in zip(a, b))}/{len(pairs)}")
    out["payload_sha256"] = {
        side: sorted({h for p in pairs for h in p[side]["payload_sha256"]})
        for side in ("parent", "change")}
    out["all_correct"] = all(p[s]["correct"] for p in pairs
                             for s in ("parent", "change"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base-tree", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.base_tree.resolve(), "change": ROOT}
    report = {"command": "python3 wlpbench/run.py --workload W --seed S",
              "workloads": {}}
    for workload in args.workload or ["level-chars", "large-ideals"]:
        pairs = []
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = ["parent", "change"][::1 if i % 2 == 0 else -1]
            pair = {side: run(trees[side], workload, seed)
                    for side in order}
            pair["first"] = order[0]
            pairs.append(pair)
            print(workload, seed, {s: pair[s]["metrics"]["decisions_per_s"]
                                   for s in order}, file=sys.stderr)
        report["workloads"][workload] = {"runs": pairs, **summarize(pairs)}
    first = next(iter(report["workloads"].values()))["runs"][0]
    for side, tree in trees.items():
        report[side] = {k: first[side][k] for k in ("git_sha", "src_sha256")}
        # sources that differ from the commit named by git_sha
        report[side]["src_uncommitted"] = bool(subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=tree,
            capture_output=True, text=True).stdout.strip())
    report["python"] = first["change"]["python"]
    report["nproc"] = first["change"]["nproc"]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
