"""Command-line interface.

Subcommands: hilbert, wlp, detm, witness, chain, sweep, betti, verify-paper.
Exit codes: 0 success, 1 mathematical check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .criterion import criterion_report, vandermonde_witness
from .families import (Aci3, INJN, Irk, Irkd, Irr, Jr, LevelAci, betti_table,
                       make_ideal)
from .fields import GF, QQ, is_prime
from .ideals import hilbert_profile, parse_ideal
from .liaison import bdl_chain
from .matrices import MAX_MOD_RANK_PRIME
from .rings import ParseError
from .sweeps import SWEEP_KINDS, run_sweep
from .wlp import DEFAULT_SEED, DEFAULT_TRIALS, wlp_check

FAMILIES = ("irkd", "irk", "irr", "jr", "aci3", "levelaci", "injn")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lefschetz",
        description="Exact WLP decisions for monomial and almost-monomial "
                    "Artinian ideals.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, chars=True):
        sp.add_argument("--family", choices=FAMILIES)
        for flag in ("r", "k", "d", "a", "b", "c", "alpha", "beta", "gamma",
                     "t", "N"):
            sp.add_argument(f"--{flag}", type=int)
        sp.add_argument("--gens", help="comma-separated generator expressions")
        sp.add_argument("--vars", help="comma-separated variable names")
        if chars:
            sp.add_argument("--char", type=int, action="append", default=None,
                            help="characteristic, 0 or prime (repeatable)")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out")

    sp = sub.add_parser("hilbert", help="Hilbert function of an Artinian quotient")
    add_common(sp)

    sp = sub.add_parser("wlp", help="decide the weak Lefschetz property")
    add_common(sp)
    sp.add_argument("--strategy", choices=("allones", "random", "paper"),
                    default="paper")
    sp.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)

    sp = sub.add_parser("detm", help="determinant criterion report")
    for flag in ("alpha", "beta", "gamma", "t"):
        sp.add_argument(f"--{flag}", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")

    sp = sub.add_parser("witness", help="characteristic-free kernel witness")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")

    sp = sub.add_parser("chain", help="double-link chain of Hilbert functions")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--family", choices=("irr", "jr"), default="irr")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")

    sp = sub.add_parser("sweep", help="parameter sweep with JSONL persistence")
    sp.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    sp.add_argument("--max-sum", type=int)
    sp.add_argument("--tspan", type=int)
    sp.add_argument("--max-power", type=int)
    sp.add_argument("--char", type=int, action="append", default=None)

    sp = sub.add_parser("betti", help="graded Betti table")
    add_common(sp, chars=False)

    sub.add_parser("verify-paper", help="run the full acceptance suite")
    return p


def family_spec(args, parser):
    f = args.family
    try:
        if f == "irkd":
            spec = Irkd(args.r, args.k, args.d)
        elif f == "irk":
            spec = Irk(args.r, args.k)
        elif f == "irr":
            spec = Irr(args.r)
        elif f == "jr":
            spec = Jr(args.r)
        elif f == "aci3":
            spec = Aci3(args.a, args.b, args.c,
                        args.alpha, args.beta, args.gamma)
        elif f == "levelaci":
            spec = LevelAci(args.alpha, args.beta, args.gamma, args.t)
        elif f == "injn":
            spec = INJN(args.N)
        else:
            parser.error("need --family or --gens/--vars")
        spec.validate()
    except (TypeError, ValueError) as exc:
        parser.error(f"bad or missing parameters for family {f}: {exc}")
    return spec


def fields_from_chars(chars, parser):
    out = []
    for ch in chars:
        if ch == 0:
            out.append(QQ)
        elif not is_prime(ch):
            parser.error(f"--char {ch} is neither 0 nor prime")
        elif ch > MAX_MOD_RANK_PRIME:
            parser.error(f"--char {ch} is outside the supported range: "
                         "primes with p*p < 2^63")
        else:
            out.append(GF(ch))
    return out


def make_quotient(args, parser, field):
    if args.gens:
        if not args.vars:
            parser.error("--gens requires --vars")
        try:
            return parse_ideal(args.gens, args.vars.split(","), field)
        except (ParseError, ValueError) as exc:
            parser.error(str(exc))
    return make_ideal(family_spec(args, parser), field)


def emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_hilbert(args, parser) -> int:
    chars = args.char or [0]
    lines = []
    records = []
    for field, ch in zip(fields_from_chars(chars, parser), chars):
        I = make_quotient(args, parser, field)
        h = list(hilbert_profile(I, field))
        records.append({"char": ch, "hilbert": h})
        prefix = f"char {ch}: " if len(chars) > 1 else ""
        lines.append(prefix + " ".join(map(str, h)))
    if args.json:
        emit(json.dumps(records if len(records) > 1 else records[0]), args.out)
    else:
        emit("\n".join(lines), args.out)
    return 0


def cmd_wlp(args, parser) -> int:
    chars = args.char or [0]
    strategy = {"paper": "auto"}.get(args.strategy, args.strategy)
    lines = []
    records = []
    for field, ch in zip(fields_from_chars(chars, parser), chars):
        I = make_quotient(args, parser, field)
        v = wlp_check(I, field, strategy=strategy, trials=args.trials,
                      seed=args.seed)
        tag = "conclusive" if v.conclusive else "not conclusive"
        verdict = "holds" if v.has_wlp else \
            f"fails at degrees {v.failure_degrees}"
        prefix = f"char {ch}: " if len(chars) > 1 else ""
        lines.append(f"{prefix}WLP: {verdict} ({tag})")
        records.append({"char": ch, "has_wlp": v.has_wlp,
                        "conclusive": v.conclusive,
                        "failure_degrees": v.failure_degrees,
                        "forms_tried": v.forms_tried, "seed": args.seed})
    if args.json:
        emit(json.dumps(records if len(records) > 1 else records[0]), args.out)
    else:
        emit("\n".join(lines), args.out)
    return 0


def cmd_detm(args, parser) -> int:
    try:
        rep = criterion_report(args.alpha, args.beta, args.gamma, args.t)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        emit(json.dumps({
            "alpha": rep.alpha, "beta": rep.beta, "gamma": rep.gamma,
            "t": rep.t, "size": rep.size, "det": str(rep.det),
            "factors": {str(p): e for p, e in sorted(rep.factors.items())},
            "failing_characteristics": sorted(rep.failing_characteristics),
        }), args.out)
    else:
        if rep.det == 0:
            chars = "every characteristic (det = 0)"
        else:
            chars = ", ".join(map(str, sorted(rep.failing_characteristics))) \
                or "none"
        fct = " * ".join(f"{p}^{e}" for p, e in sorted(rep.factors.items()))
        emit(f"size {rep.size}, det {rep.det}"
             + (f" = {fct}" if fct and rep.det not in (0, 1) else "")
             + f"; WLP fails in characteristics: {chars}", args.out)
    return 0


def cmd_witness(args, parser) -> int:
    try:
        w = vandermonde_witness(args.r)
    except ValueError as exc:
        parser.error(str(exc))
    ok = w.first_membership and w.second_membership and w.nonzero_mod_powers
    variables = [f"x{i+1}" for i in range(args.r - 1)]
    if args.json:
        emit(json.dumps({
            "r": w.r, "F": w.F.format(variables), "degree": w.F.degree,
            "terms": len(w.F.terms), "first_membership": w.first_membership,
            "second_membership": w.second_membership,
            "nonzero_mod_powers": w.nonzero_mod_powers,
        }), args.out)
    else:
        emit(f"F = {w.F.format(variables)}\n"
             f"memberships: {'both hold' if ok else 'FAILED'} "
             f"(checked over the integers, valid in every characteristic)",
             args.out)
    return 0 if ok else 1


def cmd_chain(args, parser) -> int:
    try:
        rows = bdl_chain(args.r, "Irr" if args.family == "irr" else "Jr")
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        emit(json.dumps([{"label": r.label,
                          "link_degrees": list(r.link_degrees),
                          "hvector": list(r.hvector)} for r in rows]), args.out)
    else:
        lines = []
        for r in rows:
            link = ",".join(map(str, r.link_degrees)) or "-"
            lines.append(f"{r.label} ({link}): "
                         + " ".join(map(str, r.hvector)))
        emit("\n".join(lines), args.out)
    return 0


def cmd_sweep(args, parser) -> int:
    bounds = {}
    if args.kind == "half-conj":
        if args.max_sum is not None:
            bounds["max_sum"] = args.max_sum
        if args.tspan is not None:
            bounds["tspan"] = args.tspan
        if args.char:
            bounds["chars"] = tuple(args.char)
    elif args.kind == "aci3-mod3" and args.max_power is not None:
        bounds["max_power"] = args.max_power
    elif args.kind == "conj-wlp-d456" and args.char:
        bounds["chars"] = tuple(args.char)
    try:
        n = run_sweep(args.kind, args.out, seed=args.seed, **bounds)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{n} records written to {args.out} (seed {args.seed:#x})")
    return 0


def cmd_betti(args, parser) -> int:
    spec = family_spec(args, parser)
    try:
        bt = betti_table(spec)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        emit(json.dumps([{str(tw): m for tw, m in sorted(pos.items())}
                         for pos in bt.positions]), args.out)
    else:
        lines = []
        for i, pos in enumerate(bt.positions):
            shifts = ", ".join(f"R({tw})^{m}" for tw, m in
                               sorted(pos.items(), reverse=True))
            lines.append(f"F_{i} = {shifts}")
        emit("\n".join(lines), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hilbert":
            return cmd_hilbert(args, parser)
        if args.command == "wlp":
            return cmd_wlp(args, parser)
        if args.command == "detm":
            return cmd_detm(args, parser)
        if args.command == "witness":
            return cmd_witness(args, parser)
        if args.command == "chain":
            return cmd_chain(args, parser)
        if args.command == "sweep":
            return cmd_sweep(args, parser)
        if args.command == "betti":
            return cmd_betti(args, parser)
        if args.command == "verify-paper":
            from .verify import run_all
            return 0 if run_all() else 1
    except ValueError as exc:
        parser.error(str(exc))
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
