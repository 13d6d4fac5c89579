"""WLP-decision benchmark for lefschetz.

    python3 wlpbench/run.py --workload level-chars --seed 1 --seconds 55 --trace 0
    python3 wlpbench/run.py --workload all

Run from the repository root. A run is a series of passes, each in a
fresh single-threaded process (``child.py``) on the sources under
``src/``, for as many whole passes as fit in ``--seconds``; when fewer
than ``SETUP_SAMPLES`` passes fit, a few extra processes only set up, so
that the set-up time is a median of at least that many. With
``--trace 1`` the passes alternate untraced and traced, and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the run's provenance and details, which are also
written to ``wlpbench/out/``. ``--workload all`` runs every workload in
turn and prints only the metric lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aci3-sweep", "level-chars", "large-ideals")
SETUP_SAMPLES = 7
MIN_PASSES = 2
# Timings are reported as they would read at the machine speed at which
# one workloads.calibrate() takes this long (see README.md, Timing).
CALIBRATION_REF_S = 0.001
SETUP_TIMEOUT_S = 20
PASS_TIMEOUT_S = 120
# BLAS and OpenMP pools of numpy, pinned in the child processes only
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(workload: str, seed: int, mode: str) -> dict:
    """Run child.py once; its last stdout line as JSON."""
    spawned_at = _clock()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S if mode == "setup" else PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child.py --mode {mode} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lefschetz").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def per_item_median(passes) -> list:
    """Per item (decision or record), its median time over the passes (each
    pass lists the same items in the same order)."""
    return [statistics.median(col) for col in zip(*passes)]


def tail(times) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    decisions beyond it; below 100 decisions that percentile is no tail,
    so the slowest decision instead."""
    v = sorted(times)
    n = len(v)
    if n < 100:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def _passes(workload: str, seed: int, seconds: int, modes: tuple) -> list:
    """Child results, cycling through the modes, for as many whole passes
    as fit in the given seconds of wall time, and at least MIN_PASSES (and
    each mode once). A pass is not started when the longest one so far
    would no longer fit."""
    out = []
    deadline = _clock() + seconds
    longest = 0.0
    while True:
        t0 = _clock()
        out.append(_spawn(workload, seed, modes[len(out) % len(modes)]))
        longest = max(longest, _clock() - t0)
        if (len(out) >= max(MIN_PASSES, len(modes))
                and _clock() + longest > deadline):
            return out


def _check(results: list) -> dict:
    checks = [r["check"] for r in results]
    return {"attempted": sum(c["attempted"] for c in checks),
            "failed": sum(c["failed"] for c in checks),
            "failures": [f for c in checks for f in c["failures"]][:20],
            "payload_sha256": sorted({c["payload_sha256"] for c in checks}),
            "digest_ok": all(c["digest_ok"] for c in checks),
            "decisions_ok": all(c["decisions_ok"] for c in checks)}


def _timings(passes: list, setups: list, scale) -> dict:
    """The timing metrics, each pass's times multiplied by scale(pass)."""
    per_decision = per_item_median([[t * scale(r) for t in r["decision_s"]]
                                    for r in passes])
    between = per_item_median([[t * scale(r) for t in r["between_s"]]
                               for r in passes])
    return {"setup_s": statistics.median(s * scale(r) for s, r in setups),
            "decisions_per_s": (len(per_decision)
                                / (sum(per_decision) + sum(between))),
            "decision_p50_ms": statistics.median(per_decision) * 1e3,
            "decision_tail_ms": tail(per_decision)[0] * 1e3}


def timed_metrics(workload: str, seed: int, seconds: int) -> tuple:
    passes = _passes(workload, seed, seconds, ("pass",))
    setups = [(r["setup_s"], r) for r in passes]
    while len(setups) < SETUP_SAMPLES:
        r = _spawn(workload, seed, "setup")
        setups.append((r["setup_s"], r))
    chk = _check(passes)
    timings = _timings(passes, setups,
                       lambda r: CALIBRATION_REF_S / r["calibration_s"])
    units = {"setup_s": "s", "decisions_per_s": "1/s",
             "decision_p50_ms": "ms", "decision_tail_ms": "ms"}
    metrics = {name: (v, units[name]) for name, v in timings.items()}
    metrics["peak_rss_mb"] = (
        statistics.median(r["peak_rss_mb"] for r in passes), "MB")
    metrics["verified_share"] = (1 - chk["failed"] / chk["attempted"],
                                 "share")
    n = len(passes[0]["decision_s"])
    detail = {"pass_walls_s": [r["wall_s"] for r in passes],
              "setup_samples_s": [s for s, _ in setups],
              "calibration_s": [r["calibration_s"] for _, r in setups],
              "unnormalised": _timings(passes, setups, lambda r: 1.0),
              "tail_percentile": tail(list(range(n)))[1],
              "tail_decisions": n}
    return metrics, chk, passes[0]["provenance"], detail


def traced_metrics(workload: str, seed: int, seconds: int) -> tuple:
    passes = _passes(workload, seed, seconds, ("pass", "traced"))
    traced = [r for r in passes if "metrics" in r]
    plain = [r for r in passes if "metrics" not in r]
    metrics = {n: (statistics.fmean(r["metrics"][n][0] for r in traced), u)
               for n, (_, u) in traced[0]["metrics"].items()}
    # one more untraced than traced pass when the count is odd: compare
    # like with like, each pass normalised as in timed runs
    def work(r):
        return r["wall_s"] * CALIBRATION_REF_S / r["calibration_s"]
    metrics["trace.overhead_ratio"] = (
        sum(map(work, traced)) / sum(map(work, plain[:len(traced)])), "ratio")
    detail = {"traced_passes": len(traced), "spans": traced[-1]["spans"],
              "spans_file": traced[-1]["spans_file"],
              "self_time_shares": traced[-1]["self_time_shares"]}
    return metrics, _check(passes), passes[0]["provenance"], detail


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result line, detail) for one run."""
    fn = traced_metrics if trace else timed_metrics
    metrics, chk, provenance, detail = fn(workload, seed, seconds)
    correct = chk["failed"] == 0 and chk["digest_ok"] and chk["decisions_ok"]
    line = {"correct": correct, "attempted": chk["attempted"],
            "failed": chk["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "git_sha": _git_sha(),
              "src_sha256": _src_sha256(), "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "thread_env": {v: "1" for v in THREAD_VARS},
              **provenance, **detail, "check": chk}
    return line, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="WLP-decision benchmark (see wlpbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lefschetz" / "__init__.py").is_file():
        print(f"no lefschetz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            line, detail = run_workload(name, args.seed, args.seconds,
                                        args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": line, "detail": detail}, indent=1))
        for metric, m in line["metrics"].items():
            print(f"{name:13s} {metric:36s} {m['value']:.6g} {m['unit']}")
        print(f"{name:13s} correct={line['correct']} attempted="
              f"{line['attempted']} failed={line['failed']}")
        if args.workload != "all":
            print(json.dumps({"detail": detail}))
            print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
