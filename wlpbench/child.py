"""One pass over a workload in a fresh process; ``run.py`` starts it.

Prints one JSON object as the last line of standard output. Every mode
reports the set-up time: from ``--spawned-at`` (the parent's
CLOCK_MONOTONIC reading just before it started this process) until the
inputs are ready, and the median time of ``workloads.calibrate`` in this
process. ``--mode setup`` stops after calibrating. ``--mode pass`` then
decides every record once and reports the pass's wall time, each
decision's time, each record's time outside its decisions, and the
checks. ``--mode traced`` does the same under the
tracer and reports the per-layer metrics instead of decision times.

A fresh process per pass means nothing a pass fills (``degree_monomials``'
cache, or any cache a later version adds) carries over to the next, as
with separate command-line runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
SETUP_CALIBRATIONS = 15


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _span(summary, name, field):
    return summary.get(name, {}).get(field, 0)


def _ratio(num, den):
    return num / den if den else 0.0


# name, unit, better, value for one traced pass from (span summary, tracer)
PER_LAYER = []


def _layer(name, unit, better, fn):
    PER_LAYER.append((name, unit, better, fn))


for _n in ("ideals.std_enum", "ideals.hilbert_profile", "ideals.socle_report",
           "ideals.is_artinian", "ideals.project",
           "matrices.clear_denominators", "matrices.mod_rank.cert",
           "matrices.mod_rank.p", "matrices.exact_fallback", "wlp.wlp_check"):
    _layer(_n + ".calls", "count", "lower",
           lambda s, t, n=_n: _span(s, n, "calls"))
for _n in ("ideals.std_enum", "ideals.socle_report", "ideals.slice_rows",
           "ideals.project", "matrices.clear_denominators",
           "matrices.mod_rank.cert", "matrices.mod_rank.p",
           "matrices.exact_fallback", "matrices.det_integer",
           "matrices.factor", "criterion.criterion_report", "wlp.wlp_check",
           "families.make_ideal", "families.predicates", "sweeps.record"):
    _layer(_n + ".self_s", "s", "lower",
           lambda s, t, n=_n: _span(s, n, "self_s"))
_layer("ideals.std_enum.monomials_tested", "count", "lower",
       lambda s, t: t.counters["ideals.std_enum.monomials_tested"])
_layer("ideals.std_enum.yield_ratio", "ratio", "higher",
       lambda s, t: _ratio(t.counters["ideals.std_enum.monomials_returned"],
                           t.counters["ideals.std_enum.monomials_tested"]))
for _n in ("matrices.mod_rank.cert", "matrices.mod_rank.p"):
    _layer(_n + ".entries", "count", "lower",
           lambda s, t, n=_n: t.counters[n + ".entries"])
    for _k in ("max_rows", "max_cols"):
        _layer(f"{_n}.{_k}", "count", "lower",
               lambda s, t, k=f"{_n}.{_k}": t.maxima[k])
_layer("matrices.cert_hit_ratio", "ratio", "higher",
       lambda s, t: _ratio(
           len(t.parents_of("matrices.mod_rank.cert")
               - t.parents_of("matrices.exact_fallback")),
           len(t.parents_of("matrices.mod_rank.cert"))))
_layer("wlp.forms_tried", "count", "lower",
       lambda s, t: t.counters["wlp.forms_tried"])
_layer("rings.degree_monomials.hits", "count", "higher",
       lambda s, t: t.counters["rings.degree_monomials.hits"])
_layer("rings.degree_monomials.misses", "count", "lower",
       lambda s, t: t.counters["rings.degree_monomials.misses"])


def check(wl, workloads, outcomes) -> dict:
    """Reference answers for every decision, and the verdict payload digest
    against the one recorded at the seed commit."""
    bad = workloads.failures(wl, outcomes)
    ref = json.loads((HERE / "reference.json").read_text())[wl.name]
    digest = workloads.payload_digest(outcomes)
    return {"attempted": len(outcomes), "failed": len(bad),
            "failures": bad[:20], "payload_sha256": digest,
            "digest_ok": digest == ref["payload_sha256"],
            "decisions_ok": len(outcomes) == ref["decisions"]}


def traced_metrics(tracer) -> dict:
    from lefschetz import rings
    info = rings.degree_monomials.cache_info()
    tracer.counters["rings.degree_monomials.hits"] = info.hits
    tracer.counters["rings.degree_monomials.misses"] = info.misses
    summary = tracer.summary()
    self_total = sum(s["self_s"] for s in summary.values())
    return {"metrics": {name: (fn(summary, tracer), unit)
                        for name, unit, _, fn in PER_LAYER},
            "spans": len(tracer.start),
            "self_time_shares": {
                name: s["self_s"] / self_total
                for name, s in sorted(summary.items(),
                                      key=lambda kv: -kv[1]["self_s"])}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    records = wl.records(args.seed)
    result = {"setup_s": _clock() - args.spawned_at}
    if args.mode == "setup":
        result["calibration_s"] = statistics.median(
            workloads.calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(json.dumps(result))
        return 0

    probe = workloads.NullProbe()
    if args.mode == "traced":
        from tracer import Tracer
        probe = Tracer()
        probe.install()
    t0 = time.perf_counter()
    outcomes, between_s, calibration_s = workloads.run_pass(wl, records,
                                                            probe)
    result["wall_s"] = time.perf_counter() - t0 - sum(calibration_s)
    result["calibration_s"] = statistics.median(calibration_s)
    if args.mode == "traced":
        probe.uninstall()
        result.update(traced_metrics(probe))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{wl.name}-seed{args.seed}.npz"
        probe.save(spans, [o.key for o in outcomes])
        result["spans_file"] = str(spans.relative_to(HERE.parent))
    else:
        result["decision_s"] = [o.seconds for o in outcomes]
        result["between_s"] = between_s
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024)
    result["check"] = check(wl, workloads, outcomes)

    import numpy
    result["provenance"] = {"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "params": wl.params(), "records": len(records)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
