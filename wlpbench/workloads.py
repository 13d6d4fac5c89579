"""The benchmark's three workloads: their inputs, how one record of each
runs against lefschetz's public API, and the reference answers every
verdict is checked against.

A decision is one ``wlp_check`` of one ideal in one characteristic, timed
around ``make_ideal`` plus ``wlp_check``. A record is one unit of sweep
output: a grid point (with its criterion report and predicates) and the
decisions made for it.

Library calls go through module attributes (``wlp.wlp_check``, not a name
imported into this module), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from lefschetz import criterion, families, fields, sweeps, wlp
from lefschetz.families import INJN, Aci3, Irr, Jr, LevelAci

LEVEL_CHARS = (0, 2, 3, 5, 7, 11, 13)


def _field(ch: int):
    return fields.QQ if ch == 0 else fields.GF(ch)


@dataclass
class Outcome:
    """One decision: its input, its verdict or the exception it raised, and
    its wall time in seconds."""

    spec: object
    char: int
    seconds: float
    verdict: object = None
    error: str | None = None
    monomial: bool = False
    context: object = None  # record-level data the reference check reads

    @property
    def key(self) -> str:
        return f"{self.spec!r}@{self.char}"


class NullProbe:
    """Stand-in for the tracer in timed runs: installs nothing, records
    nothing."""

    def span(self, name):
        return nullcontext()

    def set_decision(self, n):
        pass


def decide(spec, ch: int, probe, n: int, context=None) -> Outcome:
    """Make the ideal and decide its WLP, timing both together."""
    probe.set_decision(n)
    f = _field(ch)
    t0 = time.perf_counter()
    try:
        I = families.make_ideal(spec, f)
        v = wlp.wlp_check(I, f)
    except Exception as exc:  # a raising decision is a failed decision
        out = Outcome(spec, ch, time.perf_counter() - t0,
                      error=f"{type(exc).__name__}: {exc}", context=context)
    else:
        out = Outcome(spec, ch, time.perf_counter() - t0, verdict=v,
                      monomial=I.is_monomial, context=context)
    probe.set_decision(-1)
    return out


class Workload:
    name = ""

    def params(self) -> dict:
        raise NotImplementedError

    def grid(self) -> list:
        """The workload's records in canonical order."""
        raise NotImplementedError

    def records(self, seed: int) -> list:
        """The inputs of one run: the grid in an order drawn from the seed."""
        recs = self.grid()
        random.Random(seed).shuffle(recs)
        return recs

    def run_record(self, rec, probe, first_id: int) -> list:
        raise NotImplementedError

    def reference_failure(self, out: Outcome) -> str | None:
        """Why this decision disagrees with the reference, or None."""
        raise NotImplementedError


class Aci3Sweep(Workload):
    name = "aci3-sweep"
    max_power = 5

    def params(self):
        return {"sweep": "sweep_aci3_mod3", "max_power": self.max_power,
                "chars": [0]}

    def grid(self):
        return [Aci3(*p) for p in sweeps.aci3_grid(self.max_power)]

    def run_record(self, spec, probe, first_id):
        with probe.span("sweeps.record"):
            obstruction = families.aci3_mod3_obstruction(spec)
            return [decide(spec, 0, probe, first_id, context=obstruction)]

    def reference_failure(self, out):
        # published: every char-0 failure has a+b+c+alpha+beta+gamma = 0
        # mod 3, every alpha = 0 instance has the WLP, and the all-ones form
        # decides a monomial ideal conclusively
        s, v = out.spec, out.verdict
        total = s.a + s.b + s.c + s.alpha + s.beta + s.gamma
        if not v.conclusive:
            return "inconclusive"
        if not v.has_wlp and total % 3:
            return f"fails with parameter sum {total} not 0 mod 3"
        if s.alpha == 0 and not v.has_wlp:
            return "alpha = 0 instance fails"
        if out.context != (total % 3 == 0):
            return "mod-3 obstruction flag wrong"
        return None


class LevelChars(Workload):
    name = "level-chars"
    max_sum = 9
    tspan = 3

    def params(self):
        return {"sweep": "sweep_half_conj", "max_sum": self.max_sum,
                "tspan": self.tspan, "chars": list(LEVEL_CHARS)}

    def grid(self):
        return list(sweeps.level_aci_grid(self.max_sum, self.tspan))

    def run_record(self, point, probe, first_id):
        with probe.span("sweeps.record"):
            try:
                rep = criterion.criterion_report(*point)
                families.predicates(LevelAci(*point))
            except Exception as exc:
                rep = f"criterion_report raised {type(exc).__name__}: {exc}"
            return [decide(LevelAci(*point), ch, probe, first_id + i,
                           context=rep)
                    for i, ch in enumerate(LEVEL_CHARS)]

    def reference_failure(self, out):
        # the paper's determinant criterion: the level quotient loses the
        # WLP exactly in the characteristics dividing det M
        rep = out.context
        if isinstance(rep, str):
            return rep
        if out.verdict.has_wlp == rep.fails_in(out.char):
            return f"verdict {out.verdict.has_wlp} but det M = {rep.det}"
        return None


_INJN_POWER = {2: True, 3: False, 4: False}


class LargeIdeals(Workload):
    name = "large-ideals"

    def params(self):
        return {"decisions": [f"{s!r}@{ch}" for s, chars in self.grid()
                              for ch in chars]}

    def grid(self):
        g = [(Irr(5), (0, 2, 5)), (Jr(3), (0, 2, 3, 5, 7)),
             (Jr(4), (0, 2, 3, 5, 7, 11))]
        for n in (2, 3, 4):
            g.append((INJN(n, "power", 0), (0,)))
            g += [(INJN(n, "general", s), (0,)) for s in range(3)]
        return g

    def run_record(self, item, probe, first_id):
        spec, chars = item
        with probe.span("sweeps.record"):
            return [decide(spec, ch, probe, first_id + i)
                    for i, ch in enumerate(chars)]

    def reference_failure(self, out):
        s, ch, v = out.spec, out.char, out.verdict
        if isinstance(s, Irr):
            if v.has_wlp or comb(s.r, 2) - 1 not in v.failure_degrees:
                return f"expected failure at degree {comb(s.r, 2) - 1}"
        elif isinstance(s, Jr) and s.r == 3:
            if v.has_wlp != (ch != 3) or not v.conclusive:
                return "J_3 has the WLP iff char != 3, conclusively"
        elif isinstance(s, Jr):
            if v.has_wlp != (ch not in (2, 5)) or not v.conclusive:
                return "J_4 has the WLP iff char not in {2, 5}, conclusively"
        elif s.variant == "power":
            if v.has_wlp != _INJN_POWER[s.N]:
                return f"linear-form power N={s.N}: expected {_INJN_POWER[s.N]}"
        elif not (v.has_wlp and v.conclusive):
            return "general form expected to have the WLP"
        return None


WORKLOADS = {w.name: w for w in (Aci3Sweep(), LevelChars(), LargeIdeals())}


def calibrate() -> float:
    """Seconds one run of a fixed kernel takes: integer, tuple, dict and
    ``Fraction`` work like lefschetz's, but none of its code, with the
    garbage collector off so that the heap a pass has built does not
    count. Its time tracks how fast the machine runs Python right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, x, q = {}, 1, Fraction(0)
        for i in range(1200):
            key = (i % 7, i % 11, (x >> 7) % 13)
            table[key] = table.get(key, 0) + x
            x = (x * 48271 + i) % 2147483647
            if i % 20 == 0:
                q += Fraction(x % 97 + 1, i + 1)
        sorted(table, reverse=True)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_pass(workload: Workload, records: list, probe) -> tuple:
    """Every record once, in the given order, with ``calibrate`` before each
    record and after the last. Returns the outcomes, per record the seconds
    it spent outside its decisions (criterion reports, predicates,
    obstruction flags), and the calibration times."""
    outcomes, between_s, calibration_s = [], [], [calibrate()]
    for rec in records:
        t0 = time.perf_counter()
        outs = workload.run_record(rec, probe, len(outcomes))
        between_s.append(time.perf_counter() - t0
                         - sum(o.seconds for o in outs))
        outcomes += outs
        calibration_s.append(calibrate())
    return outcomes, between_s, calibration_s


def failures(workload: Workload, outcomes: list) -> list:
    """(key, reason) for every decision that raised or disagrees with the
    reference answers."""
    bad = []
    for out in outcomes:
        reason = out.error or workload.reference_failure(out)
        if reason:
            bad.append((out.key, reason))
    return bad


def payload_digest(outcomes: list) -> str:
    """sha256 of the verdict payload, order-free and without timings.

    Per decision: the verdict, and for monomial ideals also the failure
    degrees and conclusiveness. The all-ones form decides a monomial ideal,
    so any correct implementation gives the same; for the other ideals those
    depend on which forms were tried and are left out.
    """
    payload = []
    for out in outcomes:
        entry = {"key": out.key, "error": out.error is not None}
        if out.verdict is not None:
            entry["has_wlp"] = out.verdict.has_wlp
            if out.monomial:
                entry["failure_degrees"] = out.verdict.failure_degrees
                entry["conclusive"] = out.verdict.conclusive
        payload.append(entry)
    payload.sort(key=lambda e: e["key"])
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
