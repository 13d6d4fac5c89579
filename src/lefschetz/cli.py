"""Command-line interface.

Subcommands: hilbert, wlp, detm, witness, chain, sweep, betti, verify-paper.
Each subparser names the function that runs it, and each choice is named
once: the --family table below, the sweep kinds in ``sweeps.SWEEPS``.
Exit codes: 0 success, 1 a mathematical check failure or a fact about the
input (a non-Artinian quotient, a det M that factor leaves unfinished),
told in one stderr line with no usage banner, 2 usage error. A flag the
chosen family, sweep kind or strategy does not use is a usage error, and
so is any other ValueError the library raises for the input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .criterion import criterion_report, vandermonde_witness
from .families import (Aci3, INJN, Irk, Irkd, Irr, Jr, LevelAci, betti_table,
                       make_ideal)
from .fields import FieldSpec, is_prime
from .ideals import NotArtinianError, hilbert_profile, parse_ideal
from .liaison import bdl_chain
from .sweeps import SWEEPS, run_sweep
from .wlp import (DEFAULT_SEED, _all_ones, _random_forms, candidate_forms,
                  wlp_check)

# --family name -> (spec class, its flags in field order)
FAMILIES = {"irkd": (Irkd, ("r", "k", "d")),
            "irk": (Irk, ("r", "k")),
            "irr": (Irr, ("r",)),
            "jr": (Jr, ("r",)),
            "aci3": (Aci3, ("a", "b", "c", "alpha", "beta", "gamma")),
            "levelaci": (LevelAci, ("alpha", "beta", "gamma", "t")),
            "injn": (INJN, ("N",))}
FAMILY_FLAGS = tuple(dict.fromkeys(
    flag for _, flags in FAMILIES.values() for flag in flags))

# --strategy name -> the forms it tries, of (ideal, field, trials=, seed=)
STRATEGIES = {"allones": lambda I, f: [_all_ones(I.num_vars)],
              "random": lambda I, f, **kw: _random_forms(I.num_vars, f, **kw),
              "paper": candidate_forms}

# the sweep flags that set a bound of the chosen kind's generator
SWEEP_BOUNDS = ("max_sum", "tspan", "max_power", "char")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lefschetz",
        description="Exact WLP decisions for monomial and almost-monomial "
                    "Artinian ideals.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_quotient(sp, gens=True):
        sp.add_argument("--family", choices=FAMILIES)
        for flag in FAMILY_FLAGS:
            sp.add_argument(f"--{flag}", type=int)
        if gens:
            sp.add_argument("--gens",
                            help="comma-separated generator expressions")
            sp.add_argument("--vars", help="comma-separated variable names")
            sp.add_argument("--char", type=int, action="append",
                            help="characteristic, 0 or prime (repeatable)")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out")

    sp = sub.add_parser("hilbert", help="Hilbert function of an Artinian quotient")
    add_quotient(sp)
    sp.set_defaults(run=cmd_quotient, decide=hilbert_record)

    sp = sub.add_parser("wlp", help="decide the weak Lefschetz property")
    add_quotient(sp)
    sp.add_argument("--strategy", choices=STRATEGIES, default="paper")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=lambda s: int(s, 0))
    sp.set_defaults(run=cmd_quotient, decide=wlp_record)

    sp = sub.add_parser("detm", help="determinant criterion report")
    for flag in ("alpha", "beta", "gamma", "t"):
        sp.add_argument(f"--{flag}", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_detm)

    sp = sub.add_parser("witness", help="characteristic-free kernel witness")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_witness)

    sp = sub.add_parser("chain", help="double-link chain of Hilbert functions")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--family", choices=("irr", "jr"), default="irr")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(run=cmd_chain)

    sp = sub.add_parser("sweep", help="parameter sweep with JSONL persistence")
    sp.add_argument("--kind", choices=SWEEPS, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    sp.add_argument("--max-sum", type=int)
    sp.add_argument("--tspan", type=int)
    sp.add_argument("--max-power", type=int)
    sp.add_argument("--char", type=int, action="append")
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser("betti", help="graded Betti table")
    add_quotient(sp, gens=False)
    sp.set_defaults(run=cmd_betti)

    sp = sub.add_parser("verify-paper", help="run the full acceptance suite")
    sp.set_defaults(run=cmd_verify_paper)
    return p


def family_spec(args, parser):
    """The spec that --family and its flags give, or None without --family.
    A usage error for a flag the family does not take, or one it lacks."""
    cls, flags = FAMILIES.get(args.family, (None, ()))
    unused = [f"--{flag}" for flag in FAMILY_FLAGS
              if flag not in flags and getattr(args, flag) is not None]
    if unused:
        parser.error(f"{', '.join(unused)} not taken by " + (
            f"--family {args.family}" if cls else "an input without --family"))
    if cls is None:
        return None
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        parser.error(f"--family {args.family} needs {', '.join(missing)}")
    return cls(*(getattr(args, flag) for flag in flags))


def fields_from_chars(chars, parser):
    """The field of each --char; a usage error, naming it, unless it is 0 or
    a prime that is_prime decides."""
    for ch in chars:
        try:
            if ch != 0 and not is_prime(ch):
                parser.error(f"--char {ch} is neither 0 nor prime")
        except ValueError as exc:  # past the proven range of is_prime
            parser.error(f"--char {ch}: {exc}")
    return [FieldSpec(ch) for ch in chars]


def emit(args, payload, text: str):
    """Write payload as JSON under --json, else text, to --out or stdout."""
    out = json.dumps(payload) if args.json else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def cmd_quotient(args, parser) -> int:
    """hilbert and wlp: args.decide(I, field, args) -> (record, line) for
    R/I, from --family or --gens/--vars, in each --char (default 0)."""
    chars = args.char or [0]
    fields = fields_from_chars(chars, parser)
    spec = family_spec(args, parser)
    if spec is not None and (args.gens or args.vars):
        parser.error("--family excludes --gens and --vars")
    if spec is None and not args.gens:
        parser.error("need --family or --gens/--vars")
    if spec is None and not args.vars:
        parser.error("--gens requires --vars")
    records, lines = [], []
    for field, ch in zip(fields, chars):
        I = (make_ideal(spec, field) if spec else
             parse_ideal(args.gens, args.vars.split(","), field))
        record, line = args.decide(I, field, args)
        records.append({"char": ch, **record})
        prefix = f"char {ch}: " if len(chars) > 1 else ""
        lines.append(prefix + line)
    emit(args, records if len(records) > 1 else records[0], "\n".join(lines))
    return 0


def hilbert_record(I, field, args):
    h = list(hilbert_profile(I, field))
    return {"hilbert": h}, " ".join(map(str, h))


def wlp_record(I, field, args):
    """The verdict of --strategy's forms, drawn with --trials and --seed
    where given; a usage error where no random form is drawn."""
    draws = {flag: getattr(args, flag) for flag in ("trials", "seed")
             if getattr(args, flag) is not None}
    if draws and (args.strategy == "allones"
                  or args.strategy == "paper" and I.is_monomial):
        raise ValueError(f"--{' and --'.join(draws)} not used: --strategy "
                         f"{args.strategy} draws no random form for this ideal")
    v = wlp_check(I, field, STRATEGIES[args.strategy](I, field, **draws))
    tag = "conclusive" if v.conclusive else "not conclusive"
    verdict = "holds" if v.has_wlp else \
        f"fails at degrees {v.failure_degrees}"
    return ({"has_wlp": v.has_wlp, "conclusive": v.conclusive,
             "failure_degrees": v.failure_degrees, "forms_tried": v.forms_tried,
             "seed": draws.get("seed", DEFAULT_SEED)},
            f"WLP: {verdict} ({tag})")


def cmd_detm(args, parser) -> int:
    rep = criterion_report(args.alpha, args.beta, args.gamma, args.t)
    if rep.det == 0:
        chars = "every characteristic (det = 0)"
    else:
        chars = ", ".join(map(str, sorted(rep.failing_characteristics))) \
            or "none"
    fct = " * ".join(f"{p}^{e}" for p, e in sorted(rep.factors.items()))
    emit(args, {
        "alpha": rep.alpha, "beta": rep.beta, "gamma": rep.gamma,
        "t": rep.t, "size": rep.size, "det": str(rep.det),
        "factors": {str(p): e for p, e in sorted(rep.factors.items())},
        "failing_characteristics": sorted(rep.failing_characteristics),
    }, f"size {rep.size}, det {rep.det}"
         + (f" = {fct}" if fct and rep.det not in (0, 1) else "")
         + f"; WLP fails in characteristics: {chars}")
    return 0


def cmd_witness(args, parser) -> int:
    w = vandermonde_witness(args.r)
    ok = w.first_membership and w.second_membership and w.nonzero_mod_powers
    variables = [f"x{i+1}" for i in range(args.r - 1)]
    emit(args, {
        "r": w.r, "F": w.F.format(variables), "degree": w.F.degree,
        "terms": len(w.F.terms), "first_membership": w.first_membership,
        "second_membership": w.second_membership,
        "nonzero_mod_powers": w.nonzero_mod_powers,
    }, f"F = {w.F.format(variables)}\n"
       f"memberships: {'both hold' if ok else 'FAILED'} "
       f"(checked over the integers, valid in every characteristic)")
    return 0 if ok else 1


def cmd_chain(args, parser) -> int:
    rows = bdl_chain(args.r, "Irr" if args.family == "irr" else "Jr")
    lines = []
    for r in rows:
        link = ",".join(map(str, r.link_degrees)) or "-"
        lines.append(f"{r.label} ({link}): "
                     + " ".join(map(str, r.hvector)))
    emit(args, [{"label": r.label,
                 "link_degrees": list(r.link_degrees),
                 "hvector": list(r.hvector)} for r in rows], "\n".join(lines))
    return 0


def cmd_sweep(args, parser) -> int:
    fields_from_chars(args.char or (), parser)  # the checks of wlp --char
    bounds = {name: getattr(args, name) for name in SWEEP_BOUNDS
              if getattr(args, name) is not None}
    n = run_sweep(args.kind, args.out, seed=args.seed, **bounds)
    print(f"{n} records written to {args.out} (seed {args.seed:#x})")
    return 0


def cmd_betti(args, parser) -> int:
    if args.family is None:
        parser.error("need --family")
    bt = betti_table(family_spec(args, parser))
    lines = []
    for i, pos in enumerate(bt.positions):
        shifts = ", ".join(f"R({tw})^{m}" for tw, m in
                           sorted(pos.items(), reverse=True))
        lines.append(f"F_{i} = {shifts}")
    emit(args, [{str(tw): m for tw, m in sorted(pos.items())}
                for pos in bt.positions], "\n".join(lines))
    return 0


def cmd_verify_paper(args, parser) -> int:
    from .verify import run_all
    return 0 if run_all() else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (NotArtinianError, ArithmeticError) as exc:  # both ValueErrors
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
