"""Parameter sweeps with flat-file persistence.

``SWEEPS`` maps each sweep kind to its generator, which walks a
deterministic parameter grid and yields one JSON-ready dict of its own
fields per point (fixed key order). ``run_sweep`` adds the record envelope
(schema_version "1", kind, seed, wall_time) and writes JSON lines plus a
CSV summary; re-running with identical arguments reproduces identical
payloads except for the wall_time field.
"""

from __future__ import annotations

import csv
import inspect
import json
import time
from pathlib import Path

from .criterion import criterion_report
from .families import (Aci3, INJN, Irkd, LevelAci, aci3_mod3_obstruction,
                       make_ideal, predicates)
from .fields import QQ, FieldSpec
from .wlp import DEFAULT_SEED, wlp_check

SCHEMA_VERSION = "1"

# desk-scale caps per sweep kind
HALF_CONJ_MAX_SUM = 12
HALF_CONJ_MAX_TSPAN = 4
ACI3_MAX_POWER = 5
INJN_MAX_N = 4


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


def sweep_half_conj(max_sum: int = 9, tspan: int = 3, char=()):
    """Determinant criterion across the level grid; optional WLP verdicts
    in each characteristic of char, for cross-checking."""
    if max_sum > HALF_CONJ_MAX_SUM or tspan > HALF_CONJ_MAX_TSPAN:
        raise ValueError("half-conj sweep bounds exceed desk-scale caps")
    for al, be, ga, t in level_aci_grid(max_sum, tspan):
        rep = criterion_report(al, be, ga, t)
        pred = predicates(LevelAci(al, be, ga, t))
        verdicts = {}
        for ch in char:
            f = FieldSpec(ch)
            v = wlp_check(make_ideal(LevelAci(al, be, ga, t), f), f)
            verdicts[str(ch)] = v.has_wlp
        yield {"params": {"alpha": al, "beta": be, "gamma": ga, "t": t},
               "det": str(rep.det),
               "factors": {str(p): e for p, e in sorted(rep.factors.items())},
               "failing_characteristics": sorted(rep.failing_characteristics),
               "predicates": {"semistable": pred.semistable,
                              "conjecture_case": pred.conjecture_case,
                              "twin_peaks_degree": pred.twin_peaks_degree},
               "verdicts": verdicts}


def sweep_conj_wlp_d456(char=(0,)):
    """WLP report (no assertion) over the squarefree-degree-4 products
    Irkd(r, k, 4), r in {4, 5}, k in 2..5, in each characteristic of char."""
    for r in (4, 5):
        for k in range(2, 6):
            verdicts = {}
            failure_degrees = {}
            for ch in char:
                f = FieldSpec(ch)
                v = wlp_check(make_ideal(Irkd(r, k, 4), f), f)
                verdicts[str(ch)] = v.has_wlp
                failure_degrees[str(ch)] = v.failure_degrees
            yield {"params": {"r": r, "k": k, "d": 4}, "verdicts": verdicts,
                   "failure_degrees": failure_degrees}


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


def sweep_aci3_mod3(max_power: int = 5):
    """Char-0 WLP of every codim-3 almost complete intersection with pure
    powers up to max_power, with the mod-3 obstruction flag."""
    if max_power > ACI3_MAX_POWER:
        raise ValueError("aci3 sweep bound exceeds desk-scale cap")
    for a, b, c, al, be, ga in aci3_grid(max_power):
        spec = Aci3(a, b, c, al, be, ga)
        v = wlp_check(make_ideal(spec, QQ), QQ)
        yield {"params": {"a": a, "b": b, "c": c,
                          "alpha": al, "beta": be, "gamma": ga},
               "verdicts": {"0": v.has_wlp},
               "failure_degrees": {"0": v.failure_degrees},
               "mod3_obstruction": aci3_mod3_obstruction(spec)}


def sweep_injn(ns=(2, 3, 4), num_seeds: int = 3, seed: int = DEFAULT_SEED):
    """Char-0 WLP of the codim-4 pairs: pure powers plus a linear-form power
    versus pure powers plus a general form, drawn with seeds seed,
    seed + 1, ..."""
    if max(ns) > INJN_MAX_N:
        raise ValueError("injn sweep bound exceeds desk-scale cap")
    for n in ns:
        for variant in ("power", "general"):
            seeds = [0] if variant == "power" else \
                [seed + i for i in range(num_seeds)]
            for s in seeds:
                v = wlp_check(make_ideal(INJN(n, variant, s), QQ), QQ)
                yield {"params": {"N": n, "variant": variant, "form_seed": s},
                       "verdicts": {"0": v.has_wlp},
                       "conclusive": v.conclusive}


SWEEPS = {"half-conj": sweep_half_conj, "conj-wlp-d456": sweep_conj_wlp_d456,
          "aci3-mod3": sweep_aci3_mod3, "injn": sweep_injn}


def run_sweep(kind: str, out_path, seed: int = DEFAULT_SEED, **bounds) -> int:
    """Run a sweep, appending JSON lines to out_path and CSV summary lines
    alongside, with a header when the CSV is new or empty; returns the
    number of records written. bounds go to the kind's generator (those the
    sweep command sets are named as its flags), and so does seed if it
    takes one. ValueError, before either file is opened, for a bound the
    generator does not take or one over its cap."""
    generator = SWEEPS[kind]
    takes = inspect.signature(generator).parameters
    unused = [f"--{name.replace('_', '-')}" for name in bounds
              if name not in takes]
    if unused:
        raise ValueError(f"sweep kind {kind} takes no {', '.join(unused)}")
    if "seed" in takes:
        bounds["seed"] = seed
    records = []
    t0 = time.perf_counter()
    for fields in generator(**bounds):
        now = time.perf_counter()
        records.append({"schema_version": SCHEMA_VERSION, "kind": kind,
                        "seed": seed, **fields,
                        "wall_time": round(now - t0, 6)})
        t0 = now
    out_path = Path(out_path)
    with out_path.open("a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    csv_path = out_path.with_suffix(".csv")
    with csv_path.open("a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not fh.tell():
            writer.writerow(["kind", "params", "verdicts", "det", "seed"])
        for rec in records:
            writer.writerow([rec["kind"], json.dumps(rec["params"]),
                             json.dumps(rec.get("verdicts", {})),
                             rec.get("det", ""), rec["seed"]])
    return len(records)


def payload_without_wall_time(path) -> list:
    """The JSON-lines payload with the wall_time field stripped (for
    byte-for-byte reproducibility comparisons)."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rec.pop("wall_time", None)
        out.append(json.dumps(rec))
    return out
