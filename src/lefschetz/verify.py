"""The twelve headline checks: each function re-derives a published value or
claim with exact arithmetic and returns (ok, detail).

These are shared by the test suite and the `lefschetz verify-paper`
subcommand; every comparison is exact (tolerance zero).
"""

from __future__ import annotations

import json
from math import comb

from .criterion import (criterion_report, r4_surjectivity_matrix,
                        vandermonde_witness)
from .families import (Aci3, Irk, Irkd, Irr, Jr, LevelAci, betti_table,
                       chain_ideal, make_ideal, predicates)
from .fields import GF, QQ, FieldSpec
from .ideals import hilbert_profile, parse_ideal, restrict_modulo_linear, socle_report
from .liaison import bdl_chain, ci_hvector, diff_of_hf_check
from .matrices import gcd_of_maximal_minors
from .rings import poly_pow
from .sweeps import aci3_grid, level_aci_grid, sweep_injn
from .wlp import (DEFAULT_SEED, _all_ones, kernel_witness, mult_map_rank,
                  wlp_check)

XYZ = ["x", "y", "z"]


def criterion_1():
    """det M(3,3,3,7) = 78408 = 2^3 3^4 11^2; the matching quotient loses the
    WLP exactly in characteristics 2, 3, 11."""
    rep = criterion_report(3, 3, 3, 7)
    if rep.det != 78408 or rep.factors != {2: 3, 3: 4, 11: 2}:
        return False, f"det {rep.det}, factors {rep.factors}"
    for ch in (2, 3, 11):
        f = GF(ch)
        if wlp_check(make_ideal(LevelAci(3, 3, 3, 7), f), f).has_wlp:
            return False, f"WLP unexpectedly holds in char {ch}"
    for ch in (0, 5, 7, 13, 17):
        f = FieldSpec(ch)
        if not wlp_check(make_ideal(LevelAci(3, 3, 3, 7), f), f).has_wlp:
            return False, f"WLP unexpectedly fails in char {ch}"
    return True, "det 78408 = 2^3*3^4*11^2; fails exactly in chars {2,3,11}"


def criterion_2():
    """Hilbert function (1, r, C(r+1,2), r(r-1), C(r,2)) for the cubic
    squarefree family, with WLP failing at degree 2 -> 3, char 0."""
    for r in range(3, 8):
        I = make_ideal(Irkd(r, 3, 3), QQ)
        h = tuple(hilbert_profile(I))
        expected = (1, r, comb(r + 1, 2), r * (r - 1), comb(r, 2))
        if h != expected:
            return False, f"r={r}: h {h} != {expected}"
        v = wlp_check(I, QQ)
        if v.has_wlp or 2 not in v.failure_degrees:
            return False, f"r={r}: verdict {v.has_wlp}, failures {v.failure_degrees}"
    return True, "r=3..7: Hilbert functions exact; WLP fails at 2->3"


def criterion_3():
    """Squarefree grid: d=2 always has WLP; d=3 fails iff char 2 or k odd.
    Peak value 3k-3 at degrees k-1 and k for the (k,k,k,xyz) family."""
    for r in (3, 4, 5):
        for k in (2, 3, 4, 5):
            for ch in (0, 2, 3, 5, 7):
                f = FieldSpec(ch)
                if not wlp_check(make_ideal(Irkd(r, k, 2), f), f).has_wlp:
                    return False, f"d=2 fails at r={r}, k={k}, char {ch}"
                v = wlp_check(make_ideal(Irkd(r, k, 3), f), f)
                expect_fail = ch == 2 or k % 2 == 1
                if v.has_wlp != (not expect_fail):
                    return False, (f"d=3 r={r} k={k} char {ch}: "
                                   f"got {v.has_wlp}, expected {not expect_fail}")
    for k in range(2, 7):
        h = hilbert_profile(make_ideal(Irkd(3, k, 3), QQ))
        if not (h[k - 1] == h[k] == 3 * k - 3):
            return False, f"k={k}: peak {h[k-1]},{h[k]} != {3*k-3}"
    return True, "d=2 grid holds; d=3 fails iff char 2 or k odd; peaks 3k-3"


_J5_ROW = (1, 5, 15, 35, 70, 120, 180, 240, 285, 300,
           280, 230, 165, 100, 50, 20, 5)
_R5_CHAIN_FAILURES = {1: [], 2: [], 3: [7], 4: [8], 5: [8, 9]}


def criterion_4():
    """r=5 double-link chain: the five Hilbert rows exactly, and the WLP
    verdicts with the published failing degrees."""
    rows = bdl_chain(5)
    if tuple(rows[-1].hvector) != _J5_ROW:
        return False, f"final row {tuple(rows[-1].hvector)}"
    for i in range(1, 6):
        I = chain_ideal(5, i)
        if hilbert_profile(I) != rows[i - 1].hvector:
            return False, f"J{i}: chain row != direct Hilbert function"
        v = wlp_check(I, QQ)
        if v.failure_degrees != _R5_CHAIN_FAILURES[i]:
            return False, (f"J{i}: failures {v.failure_degrees} "
                           f"!= {_R5_CHAIN_FAILURES[i]}")
    return True, "five chain rows exact; WLP failures at the published degrees"


def criterion_5():
    """Pure powers plus full product fail the WLP from degree C(r,2)-1, in
    every characteristic; the alternating-determinant kernel element passes
    both membership checks over the integers."""
    for r in (3, 4, 5):
        for ch in (0, 2, 3, 5, 7):
            f = FieldSpec(ch)
            v = wlp_check(make_ideal(Irr(r), f), f)
            if v.has_wlp or comb(r, 2) - 1 not in v.failure_degrees:
                return False, (f"r={r} char {ch}: verdict {v.has_wlp}, "
                               f"failures {v.failure_degrees}")
    for r in range(3, 7):
        w = vandermonde_witness(r)
        if not (w.first_membership and w.second_membership
                and w.nonzero_mod_powers):
            return False, f"witness checks fail at r={r}"
    return True, "WLP fails from C(r,2)-1 for r=3..5; witnesses pass for r=3..6"


def criterion_6():
    """Almost-monomial variants: same Hilbert functions as the monomial
    targets; WLP iff char != 3 (r=3) and char not in {2,5} (r=4); minor gcd
    of the 30x28 matrix computed exactly."""
    for r in (3, 4):
        hj = tuple(hilbert_profile(make_ideal(Jr(r), QQ), QQ))
        hi = tuple(hilbert_profile(make_ideal(Irr(r), QQ)))
        if hj != hi:
            return False, f"r={r}: {hj} != {hi}"
    if hj[:7] != (1, 4, 10, 20, 30, 36, 34):
        return False, f"r=4 prefix {hj[:7]}"
    for ch in (0, 2, 3, 5, 7):
        f = FieldSpec(ch)
        v = wlp_check(make_ideal(Jr(3), f), f)
        if v.has_wlp != (ch != 3) or not v.conclusive:
            return False, f"r=3 char {ch}: {v.has_wlp}"
    for ch in (0, 2, 3, 5, 7, 11):
        f = FieldSpec(ch)
        v = wlp_check(make_ideal(Jr(4), f), f)
        if v.has_wlp != (ch not in (2, 5)) or not v.conclusive:
            return False, f"r=4 char {ch}: {v.has_wlp}"
    g = gcd_of_maximal_minors(r4_surjectivity_matrix())
    # the published value 320 = "2^8 * 5" is internally inconsistent
    # (320 = 2^6 * 5); the exact gcd is 5120 = 2^10 * 5, and the prime
    # support {2, 5} — the only WLP-relevant content — agrees
    if g != 5120:
        return False, f"minor gcd {g} != 5120"
    return True, ("Hilbert functions agree; r=3 WLP iff char!=3, r=4 iff "
                  "char not in {2,5}; minor gcd 5120 = 2^10*5 (prime support "
                  "{2,5} as published, stated constant 320 corrected)")


def criterion_7():
    """Half of the level conjecture: every case-(1)/(2)/(3) tuple in the grid
    has det M = 0; determinant criterion matches the rank oracle on the
    sub-grid across characteristics."""
    cases = 0
    for al, be, ga, t in level_aci_grid(12, 4):
        rep = criterion_report(al, be, ga, t)
        pred = predicates(LevelAci(al, be, ga, t))
        if pred.conjecture_case != "none":
            cases += 1
            if rep.det != 0:
                return False, (f"case {pred.conjecture_case} at "
                               f"({al},{be},{ga},{t}) has det {rep.det}")
    if cases == 0:
        return False, "grid contained no conjecture-case tuples"
    pts = 0
    for al, be, ga, t in level_aci_grid(9, 4):
        rep = criterion_report(al, be, ga, t)
        for ch in (0, 2, 3, 5, 7, 11, 13):
            f = FieldSpec(ch)
            v = wlp_check(make_ideal(LevelAci(al, be, ga, t), f), f)
            if v.has_wlp != (not rep.fails_in(ch)):
                return False, (f"criterion/oracle mismatch at "
                               f"({al},{be},{ga},{t}) char {ch}")
            pts += 1
    return True, (f"{cases} conjecture-case tuples all have det 0; "
                  f"criterion = oracle at {pts} (tuple, char) points")


def criterion_8():
    """Char-0 sweep of codim-3 almost complete intersections with powers up
    to 5: every WLP failure has parameter sum divisible by 3, and every
    instance whose mixed generator misses x has the WLP."""
    count = fails = 0
    for a, b, c, al, be, ga in aci3_grid(5):
        spec = Aci3(a, b, c, al, be, ga)
        v = wlp_check(make_ideal(spec, QQ), QQ)
        count += 1
        if not v.conclusive:
            return False, f"inconclusive at {spec}"
        if not v.has_wlp:
            fails += 1
            total = a + b + c + al + be + ga
            if total % 3 != 0:
                return False, f"mod-3 violation at {spec}"
        if al == 0 and not v.has_wlp:
            return False, f"alpha=0 failure at {spec}"
    return True, (f"{count} ideals swept; all {fails} failures have "
                  "parameter sum 0 mod 3; all alpha=0 instances have WLP")


def criterion_9():
    """Characteristic-p pure powers: WLP fails with the (p-1)-st power of the
    all-ones form in the kernel; the level almost complete intersection
    variant has socle degree 3p-4."""
    for p in (2, 3, 5):
        f = GF(p)
        I = parse_ideal(f"x^{p},y^{p},z^{p}", XYZ, f)
        if wlp_check(I, f).has_wlp:
            return False, f"WLP unexpectedly holds for p={p}"
        w = kernel_witness(I, f, p - 1)
        expected = poly_pow(_all_ones(3), p - 1, f).normalized(f)
        if w != expected:
            return False, f"p={p}: witness {w} != all-ones power"
        I2 = parse_ideal(
            f"x^{p},y^{p},z^{p},x^{p-1}*y^{p-1}*z^{p-1}", XYZ, f)
        rep = socle_report(I2)
        if not rep.is_level or set(rep.socle_degrees) != {3 * p - 4}:
            return False, f"p={p}: socle {rep.socle_degrees}"
        if wlp_check(I2, f).has_wlp:
            return False, f"p={p}: level variant unexpectedly has WLP"
    return True, "p=2,3,5: failures with witness (x+y+z)^(p-1); socle 3p-4"


def criterion_10():
    """Hilbert-function lemmas: the midpoint inequality for s=2..8; twin
    peaks across the criterion grid; Betti alternating sums reproduce the
    Hilbert functions."""
    for s in range(2, 9):
        if not diff_of_hf_check(s):
            return False, f"midpoint inequality fails at s={s}"
    for al, be, ga, t in level_aci_grid(12, 4):
        pred = predicates(LevelAci(al, be, ga, t))
        h = hilbert_profile(make_ideal(LevelAci(al, be, ga, t), QQ))
        d = pred.twin_peaks_degree
        if not (h[d] == h[d + 1] > 0):
            return False, f"twin peaks fail at ({al},{be},{ga},{t})"
    for r in range(2, 6):
        for k in range(1, 6):
            h = hilbert_profile(make_ideal(Irk(r, k), QQ))
            upto = h.socle_degree + 2
            want = tuple(h) + (0,) * (upto - h.socle_degree)
            if betti_table(Irk(r, k)).alternating_hilbert(r, upto) != want:
                return False, f"Betti sums wrong for product family r={r} k={k}"
    for a, b, c, al, be, ga in aci3_grid(6):
        if not 2 <= a <= b <= c:
            continue
        spec = Aci3(a, b, c, al, be, ga)
        h = hilbert_profile(make_ideal(spec, QQ))
        upto = h.socle_degree + 2
        want = tuple(h) + (0,) * (upto - h.socle_degree)
        if betti_table(spec).alternating_hilbert(3, upto) != want:
            return False, f"Betti sums wrong at {spec}"
    return True, "midpoint lemma s=2..8; twin peaks on full grid; Betti sums exact"


def criterion_11():
    """Codim-4 comparison at desk scale: linear-form power yes/no/no for
    N=2,3,4; general form yes at every N and seed, conclusively."""
    expected_power = {2: True, 3: False, 4: False}
    for rec in sweep_injn(ns=(2, 3, 4), num_seeds=3):
        n = rec["params"]["N"]
        got = rec["verdicts"]["0"]
        if rec["params"]["variant"] == "power":
            if got != expected_power[n]:
                return False, f"linear-form power N={n}: {got}"
        else:
            if not got or not rec["conclusive"]:
                return False, (f"general form N={n} seed "
                               f"{rec['params']['form_seed']}: {got}")
    return True, "power variant yes/no/no for N=2,3,4; general variant all yes"


def criterion_12():
    """Internal cross-checks: Prop. 2.1 propagation (ranks read up from the
    first surjective step and, in a level algebra, down from the first
    injective one) vs a full scan by mult_map_rank, cokernel duality against
    restriction, h-vector symmetry, JSON round-trip, and deterministic
    re-runs."""
    import tempfile
    from pathlib import Path

    from .sweeps import SCHEMA_VERSION, payload_without_wall_time, run_sweep

    for spec in (LevelAci(1, 2, 3, 3), LevelAci(2, 2, 2, 4), Irk(3, 4)):
        for ch in (0, 2, 7):
            f = FieldSpec(ch)
            I = make_ideal(spec, f)
            fast = wlp_check(I, f)
            scan = [mult_map_rank(I, fast.form_used, r.d, f)
                    for r in fast.reports]
            failures = [d for d, m in enumerate(scan)
                        if m["rank"] < min(m["h_d"], m["h_de"])]
            if fast.has_wlp != (not failures) or \
                    fast.failure_degrees != failures:
                return False, f"propagation/full-scan mismatch at {spec} char {ch}"
            if [r.rank for r in fast.reports] != [m["rank"] for m in scan]:
                return False, f"rank report mismatch at {spec} char {ch}"

    for gens in ("x^3,y^3,z^3,x*y*z", "x^4,y^4,z^3,x*y^2*z"):
        I = parse_ideal(gens, XYZ, QQ)
        L = _all_ones(3)
        hbar = hilbert_profile(restrict_modulo_linear(I, L, 2, QQ), QQ)
        for d in range(0, hilbert_profile(I).socle_degree + 1):
            data = mult_map_rank(I, L, d, QQ)
            if data["h_de"] - data["rank"] != hbar[d + 1]:
                return False, f"cokernel duality fails for ({gens}) at d={d}"

    for degs in ((2,), (3, 4), (2, 5, 5), (3, 3, 3, 3), (2, 3, 4, 5, 6)):
        if not ci_hvector(degs).is_symmetric:
            return False, f"h-vector of {degs} not symmetric"

    with tempfile.TemporaryDirectory() as tmp:
        p1 = Path(tmp) / "a.jsonl"
        p2 = Path(tmp) / "b.jsonl"
        run_sweep("injn", p1, ns=(2, 3), num_seeds=2)
        run_sweep("injn", p2, ns=(2, 3), num_seeds=2)
        pay1 = payload_without_wall_time(p1)
        pay2 = payload_without_wall_time(p2)
        if pay1 != pay2:
            return False, "re-run payloads differ"
        # the records written, read back, are those the generator yields
        if list(map(json.loads, pay1)) != [
                {"schema_version": SCHEMA_VERSION, "kind": "injn",
                 "seed": DEFAULT_SEED, **fields}
                for fields in sweep_injn(ns=(2, 3), num_seeds=2)]:
            return False, "JSON round-trip failure"
    return True, ("propagation = full scan; cokernel duality holds; symmetric "
                  "h-vectors; JSON round-trips; re-runs byte-identical")


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12]


def run_all() -> bool:
    """Run the whole suite, emitting one pass/fail line per check."""
    all_ok = True
    for i, crit in enumerate(ALL_CRITERIA, start=1):
        ok, detail = crit()
        all_ok = all_ok and ok
        print(f"criterion {i:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return all_ok
