"""Self-tests of the benchmark: ``python3 -m pytest -q wlpbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from lefschetz.families import Aci3, LevelAci  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tr = tracer_mod.Tracer(clock=lambda: next(ticks))
    with tr.span("outer"):          # 0 .. 10
        with tr.span("inner"):      # 2 .. 5
            with tr.span("leaf"):   # 3 .. 4
                pass
        with tr.span("inner"):      # 6 .. 7
            pass
    s = tr.summary()
    assert s["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert s["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert s["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert list(tr.parent) == [-1, 0, 1, 0]


def _bindings(originals) -> dict:
    """{(module name, attribute): function} for every binding, in any
    lefschetz module and under any name, of one of these functions."""
    by_id = {id(f): f for f in originals}
    return {(mod.__name__, attr): value
            for mod in tracer_mod._lefschetz_modules()
            for attr, value in vars(mod).items()
            if by_id.get(id(value)) is value}


def test_every_consumer_binding_is_wrapped():
    originals = [getattr(sys.modules[m], a)
                 for m, a, _, _ in tracer_mod.TARGETS if "." not in a]
    before = _bindings(originals)
    # bindings through which the traced layers are reached
    for binding in [("lefschetz.ideals", "mod_rank"),
                    ("lefschetz.matrices", "mod_rank"),
                    ("lefschetz.ideals", "socle_report"),
                    ("lefschetz.wlp", "socle_report"),
                    ("lefschetz.wlp", "hilbert_profile"),
                    ("lefschetz.sweeps", "make_ideal")]:
        assert binding in before
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert _bindings(originals) == {}
        for (mod, attr), original in before.items():
            assert getattr(sys.modules[mod], attr).__wrapped__ is original
        for m, a, _, _ in tracer_mod.TARGETS:
            if "." in a:
                cls, meth = a.split(".")
                method = getattr(getattr(sys.modules[m], cls), meth)
                assert hasattr(method, "__wrapped__"), f"{m}.{a} not wrapped"
    finally:
        tr.uninstall()
    assert _bindings(originals) == before


def test_traced_decisions_reach_every_layer():
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        for ch in (0, 5):
            workloads.decide(LevelAci(1, 2, 3, 3), ch, tr, ch)
        workloads.decide(Aci3(3, 3, 3, 1, 1, 1), 0, tr, 9)
    finally:
        tr.uninstall()
    names = set(tr.summary())
    assert {"ideals.std_enum", "ideals.hilbert_profile", "ideals.socle_report",
            "ideals.is_artinian", "ideals.project", "ideals.slice_rows",
            "matrices.clear_denominators", "matrices.mod_rank.cert",
            "matrices.mod_rank.p", "matrices.rank_int_rows",
            "matrices.exact_fallback", "wlp.wlp_check",
            "families.make_ideal"} <= names
    assert set(tr.decision) == {0, 5, 9}
    assert tr.counters["wlp.forms_tried"] == 3


class _Verdict:
    def __init__(self, has_wlp):
        self.has_wlp = has_wlp
        self.conclusive = True
        self.failure_degrees = [] if has_wlp else [4]


def test_wrong_verdict_counts_as_failed():
    wl = workloads.WORKLOADS["aci3-sweep"]
    spec = Aci3(3, 3, 3, 0, 1, 1)  # alpha = 0: has the WLP
    right = workloads.decide(spec, 0, workloads.NullProbe(), 0,
                             context=False)
    assert right.verdict.has_wlp
    wrong = workloads.Outcome(spec, 0, 0.001, verdict=_Verdict(False),
                              monomial=True, context=False)
    raised = workloads.Outcome(spec, 0, 0.001, error="ZeroDivisionError: x")
    checks = [child.check(wl, workloads, outs)
              for outs in ([right], [wrong], [raised])]
    assert [c["failed"] for c in checks] == [0, 1, 1]
    assert checks[0]["payload_sha256"] != checks[1]["payload_sha256"]
    total = run._check([{"check": c} for c in checks])
    assert (total["attempted"], total["failed"]) == (3, 2)


def test_level_reference_follows_the_determinant():
    wl = workloads.WORKLOADS["level-chars"]
    rec = (3, 3, 3, 6)
    assert rec in wl.grid()
    outs = wl.run_record(rec, workloads.NullProbe(), 0)
    assert workloads.failures(wl, outs) == []
    flipped = [workloads.Outcome(o.spec, o.char, o.seconds,
                                 verdict=_Verdict(not o.verdict.has_wlp),
                                 context=o.context) for o in outs]
    assert len(workloads.failures(wl, flipped)) == len(outs)


def test_tail_percentile():
    assert run.tail(list(range(1000))) == (989, 99.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.per_item_median([[1, 5], [2, 6], [9, 4]]) == [2, 5]


def test_normalisation_cancels_machine_speed():
    def timed_pass(speed):  # the same work on a machine `speed` times slower
        return {"decision_s": [0.010 * speed, 0.030 * speed],
                "between_s": [0.010 * speed], "setup_s": 0.2 * speed,
                "calibration_s": run.CALIBRATION_REF_S * speed}

    def timings(speeds):
        passes = [timed_pass(v) for v in speeds]
        return run._timings(passes, [(r["setup_s"], r) for r in passes],
                            lambda r: run.CALIBRATION_REF_S
                            / r["calibration_s"])

    steady = timings([1, 1, 1])
    assert steady == pytest.approx({"setup_s": 0.2, "decisions_per_s": 40.0,
                                    "decision_p50_ms": 20.0,
                                    "decision_tail_ms": 30.0})
    assert timings([1.8, 1, 1.3]) == pytest.approx(steady)


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    # aci3-sweep runs on request only (see README.md, Workloads)
    assert [w["name"] for w in bench["workloads"]] == ["level-chars",
                                                       "large-ideals"]
    layer = {(n, u, b) for n, u, b, _ in child.PER_LAYER}
    layer.add(("trace.overhead_ratio", "ratio", "lower"))
    assert {(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]} == layer
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"setup_s", "decisions_per_s", "decision_p50_ms",
                   "decision_tail_ms", "peak_rss_mb", "verified_share"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "wlpbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wlpbench/run.py", "--workload", "level-chars",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_grid_sizes(name):
    ref = json.loads((HERE / "reference.json").read_text())[name]
    wl = workloads.WORKLOADS[name]
    recs = wl.records(3)
    assert sorted(map(repr, recs)) == sorted(map(repr, wl.grid()))
    assert recs == wl.records(3)
    per_record = {"aci3-sweep": lambda rec: 1,
                  "level-chars": lambda rec: len(workloads.LEVEL_CHARS),
                  "large-ideals": lambda rec: len(rec[1])}[name]
    assert sum(map(per_record, recs)) == ref["decisions"]
