"""Parameter sweeps with flat-file persistence.

Each sweep walks a deterministic parameter grid and yields one JSON-ready
record per point (fixed key order, schema_version "1"). Records are written
as JSON lines plus a CSV summary; re-running with identical arguments
reproduces identical payloads except for the wall_time field.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

from .criterion import criterion_report
from .families import (Aci3, INJN, Irkd, LevelAci, aci3_mod3_obstruction,
                       make_ideal, predicates)
from .fields import QQ, FieldSpec
from .wlp import DEFAULT_SEED, wlp_check

SCHEMA_VERSION = "1"

SWEEP_KINDS = ("half-conj", "conj-wlp-d456", "aci3-mod3", "injn")

# desk-scale caps per sweep kind
HALF_CONJ_MAX_SUM = 12
HALF_CONJ_MAX_TSPAN = 4
ACI3_MAX_POWER = 5
INJN_MAX_N = 4
CONJ_WLP_MAX_R = 5
CONJ_WLP_MAX_K = 5


def _base(kind: str, seed: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "seed": seed}


def level_aci_grid(max_sum: int, tspan: int):
    """Ordered tuples (alpha, beta, gamma, t) satisfying the criterion
    hypotheses with alpha+beta+gamma <= max_sum and s <= t <= s+tspan."""
    for al in range(1, max_sum + 1):
        for be in range(al, max_sum + 1):
            for ga in range(be, max_sum + 1):
                s3 = al + be + ga
                if s3 > max_sum or s3 % 3 or ga > 2 * (al + be):
                    continue
                s = s3 // 3
                for t in range(s, s + tspan + 1):
                    if t + (al + be - 2 * ga) // 3 < 1:
                        continue
                    yield al, be, ga, t


def sweep_half_conj(max_sum: int = 9, tspan: int = 3, chars=(),
                    seed: int = DEFAULT_SEED):
    """Determinant criterion across the level grid; optional per-char WLP
    verdicts for cross-checking."""
    if max_sum > HALF_CONJ_MAX_SUM or tspan > HALF_CONJ_MAX_TSPAN:
        raise ValueError("half-conj sweep bounds exceed desk-scale caps")
    for al, be, ga, t in level_aci_grid(max_sum, tspan):
        t0 = time.perf_counter()
        rep = criterion_report(al, be, ga, t)
        pred = predicates(LevelAci(al, be, ga, t))
        rec = _base("half-conj", seed)
        rec["params"] = {"alpha": al, "beta": be, "gamma": ga, "t": t}
        rec["det"] = str(rep.det)
        rec["factors"] = {str(p): e for p, e in sorted(rep.factors.items())}
        rec["failing_characteristics"] = sorted(rep.failing_characteristics)
        rec["predicates"] = {"semistable": pred.semistable,
                             "conjecture_case": pred.conjecture_case,
                             "twin_peaks_degree": pred.twin_peaks_degree}
        rec["verdicts"] = {}
        for ch in chars:
            f = FieldSpec(ch)
            v = wlp_check(make_ideal(LevelAci(al, be, ga, t), f), f)
            rec["verdicts"][str(ch)] = v.has_wlp
        rec["wall_time"] = round(time.perf_counter() - t0, 6)
        yield rec


def sweep_conj_wlp_d456(rs=(4, 5), ks=(2, 3, 4, 5), d: int = 4, chars=(0,),
                        seed: int = DEFAULT_SEED):
    """WLP report (no assertion) over the squarefree-degree-d product grid."""
    if max(rs) > CONJ_WLP_MAX_R or max(ks) > CONJ_WLP_MAX_K:
        raise ValueError("conj-wlp sweep bounds exceed desk-scale caps")
    for r in rs:
        if d > r:
            continue
        for k in ks:
            t0 = time.perf_counter()
            rec = _base("conj-wlp-d456", seed)
            rec["params"] = {"r": r, "k": k, "d": d}
            rec["verdicts"] = {}
            rec["failure_degrees"] = {}
            for ch in chars:
                f = FieldSpec(ch)
                v = wlp_check(make_ideal(Irkd(r, k, d), f), f)
                rec["verdicts"][str(ch)] = v.has_wlp
                rec["failure_degrees"][str(ch)] = v.failure_degrees
            rec["wall_time"] = round(time.perf_counter() - t0, 6)
            yield rec


def aci3_grid(max_power: int):
    for a in range(1, max_power + 1):
        for b in range(1, max_power + 1):
            for c in range(1, max_power + 1):
                for al in range(0, a):
                    for be in range(0, b):
                        for ga in range(0, c):
                            if sum(1 for e in (al, be, ga) if e > 0) < 2:
                                continue
                            yield a, b, c, al, be, ga


def sweep_aci3_mod3(max_power: int = 5, seed: int = DEFAULT_SEED):
    """Char-0 WLP of every codim-3 almost complete intersection with pure
    powers up to max_power, with the mod-3 obstruction flag."""
    if max_power > ACI3_MAX_POWER:
        raise ValueError("aci3 sweep bound exceeds desk-scale cap")
    for a, b, c, al, be, ga in aci3_grid(max_power):
        t0 = time.perf_counter()
        spec = Aci3(a, b, c, al, be, ga)
        v = wlp_check(make_ideal(spec, QQ), QQ)
        rec = _base("aci3-mod3", seed)
        rec["params"] = {"a": a, "b": b, "c": c,
                         "alpha": al, "beta": be, "gamma": ga}
        rec["verdicts"] = {"0": v.has_wlp}
        rec["failure_degrees"] = {"0": v.failure_degrees}
        rec["mod3_obstruction"] = aci3_mod3_obstruction(spec)
        rec["wall_time"] = round(time.perf_counter() - t0, 6)
        yield rec


def sweep_injn(ns=(2, 3, 4), num_seeds: int = 3, seed: int = DEFAULT_SEED):
    """Char-0 WLP of the codim-4 pairs: pure powers plus a linear-form power
    versus pure powers plus a seeded general form."""
    if max(ns) > INJN_MAX_N:
        raise ValueError("injn sweep bound exceeds desk-scale cap")
    for n in ns:
        for variant in ("power", "general"):
            seeds = [0] if variant == "power" else \
                [seed + i for i in range(num_seeds)]
            for s in seeds:
                t0 = time.perf_counter()
                v = wlp_check(make_ideal(INJN(n, variant, s), QQ), QQ)
                rec = _base("injn", seed)
                rec["params"] = {"N": n, "variant": variant, "form_seed": s}
                rec["verdicts"] = {"0": v.has_wlp}
                rec["conclusive"] = v.conclusive
                rec["wall_time"] = round(time.perf_counter() - t0, 6)
                yield rec


def run_sweep(kind: str, out_path, seed: int = DEFAULT_SEED, **bounds) -> int:
    """Run a sweep, appending JSON lines to out_path and writing a CSV summary
    alongside; returns the number of records written."""
    if kind == "half-conj":
        records = sweep_half_conj(seed=seed, **bounds)
    elif kind == "conj-wlp-d456":
        records = sweep_conj_wlp_d456(seed=seed, **bounds)
    elif kind == "aci3-mod3":
        records = sweep_aci3_mod3(seed=seed, **bounds)
    elif kind == "injn":
        records = sweep_injn(seed=seed, **bounds)
    else:
        raise ValueError(f"unknown sweep kind {kind!r}; expected {SWEEP_KINDS}")
    out_path = Path(out_path)
    count = 0
    rows = []
    with out_path.open("a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
            rows.append(rec)
            count += 1
    csv_path = out_path.with_suffix(".csv")
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "params", "verdicts", "det", "seed"])
        for rec in rows:
            writer.writerow([rec["kind"], json.dumps(rec["params"]),
                             json.dumps(rec.get("verdicts", {})),
                             rec.get("det", ""), rec["seed"]])
    return count


def payload_without_wall_time(path) -> list:
    """The JSON-lines payload with the wall_time field stripped (for
    byte-for-byte reproducibility comparisons)."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rec.pop("wall_time", None)
        out.append(json.dumps(rec))
    return out
