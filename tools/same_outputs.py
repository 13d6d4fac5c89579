"""Check that lefschetz gives the same outputs in this tree as in another.

    python3 tools/same_outputs.py --base-tree DIR

DIR is a checkout of the revision to compare against (for instance a
``git clone`` of this repository at the parent commit), as for
``tools/bench_pairs.py``. Each output below is made once in each tree, by
``python -m lefschetz.cli`` with that tree's ``src`` first on the path:

- ``--help`` of ``lefschetz`` and of every subcommand but ``betti``
  (whose help lost ``--gens`` and ``--vars``, which it never used): exit
  code and stdout;
- ``verify-paper``: its exit code and stdout;
- ``witness --r R --json`` for R = 3..6, and ``detm --json`` at
  (alpha, beta, gamma, t) = (3, 3, 3, 7), at (7, 7, 7, 11), the largest
  ``M`` of ``level_aci_grid(21, 4)`` (11 x 11, det
  95023728564327139576160 = 2^5 5 7^5 17^5 19^6 23^2), and at
  (2, 9, 13, 9), where det M = 0 and the level conjecture's case is
  "none": exit code and stdout;
- ``chain --r R --family F --json`` for R = 3..7 and F = irr, jr (the
  h-vector calculus), ``hilbert --family jr --r 4 --char 0 --char 5 --json``
  and ``wlp --family jr --r 4 --char 0 --char 2 --char 5 --json`` (a
  non-monomial ideal's Hilbert profile and verdicts), and
  ``hilbert --family irr --r 5 --char 2 --char 0 --json`` and
  ``wlp --family jr --r 4 --char 2 --char 0 --char 5 --json`` (the
  monomial part's standard monomials first made in char p, then read in
  char 0), and ``hilbert --gens x^2,y^3 --vars x,y,z
  --char 0 --char 2`` (a non-Artinian monomial ideal, whose exit code
  comes from the NotArtinianError raised in each field): exit code and
  stdout;
- ``hilbert`` and ``wlp --json`` for ``--gens x^2,y^2+x*y --vars x,y,z
  --char 0 --char 2``, a non-Artinian ideal with a polynomial generator,
  whose error names the engine's reason (no vanishing slice below the
  degree cap): exit code and stdout;
- ``wlp --json`` for ``--family levelaci --alpha 1 --beta 2 --gamma 3
  --t 4`` in characteristics 0, 2 and 3, ``--family irr --r 5`` in 0, 2
  and 5 (level ideals whose failures span several degrees) and in 5, 2
  and 0 (its all-ones maps, with cores of dozens of rows, split in char
  p first and read in char 0), the
  non-level ``--gens x^5,y^5,z^2,x*y^4,y^2*z,x*z --vars x,y,z`` in 0 and
  2 and in 2 and 0 (its part's levelness first derived in char 2, then
  read in char 0),
  and ``--family levelaci --alpha 3 --beta 3 --gamma 3 --t 7`` in 2,
  11, 0, 3 and 5 (det M = 2^3 3^4 11^2: in one process, characteristics
  decided before and after char 0 has computed the integer ranks, both
  ones that divide det M and one that does not): exit code and stdout;
- ``wlp --family irr --r 5 --char 2 --char 0 --char 5 --json``, and
  ``wlp --json`` in 0 and 2 for ``--family levelaci`` at (alpha, beta,
  gamma, t) = (2, 9, 13, 9) and (3, 7, 14, 9), where det M = 0 outside
  every case of the level conjecture (all-ones maps whose rank is read
  off the restriction to r - 1 variables with the core furthest from the
  map's own): exit code and stdout;
- ``hilbert --json`` and ``wlp --json`` for ``--gens
  x^3,y^3,z^3,2*x^2*y+3*y^2*z+6*x*z^2 --vars x,y,z`` in characteristics
  0, 2, 3 and 5 (a polynomial generator whose scaled terms differ by
  field, as the slice engine scales it once when it is built: h is
  (1,3,6,6,3) in chars 0 and 5 and (1,3,6,6,4,1) in chars 2 and 3, and
  the WLP fails at degree 2 in char 3 only): exit code and stdout;
- ``wlp --family levelaci --alpha 3 --beta 10 --gamma 17 --t 16 --char
  11448649999 --json``, a prime past 2^32 that divides det M: exit code
  and stdout;
- ``wlp --family jr --r 5 --char 3 --char 5 --char 7 --json`` and
  ``wlp --family jr --r 4 --char 5 --strategy random --trials 8 --json``
  (long failing searches, each reported from its last distinct form while
  the earlier forms stop at their first failing degree): exit code and
  stdout;
- ``wlp --family jr --r 4 --char 0 --char 5 --strategy allones --json``
  and ``wlp --family jr --r 3 --char 3 --char 7 --strategy paper --trials
  2 --seed 9 --json`` (the forms each strategy maps to, with the flags it
  takes): exit code and stdout;
- ``hilbert --family irkd --k 2 --json`` at (r, d) = (14, 4) and (46, 2),
  and ``wlp --family irkd --r 14 --k 2 --d 4 --char 0 --char 2 --json``
  (over a thousand generators of two or more variables, each a Hilbert
  profile of few standard monomials): exit code and stdout;
- ``betti --family F``, as text and with ``--json``, for ``Irk(4, 3)``
  and ``Jr(4)`` (the product family's table) and for ``Aci3(4, 5, 6, 1,
  2, 3)`` and ``LevelAci(1, 2, 3, 4)`` (the codimension-3 table), and
  ``betti --family irkd --r 4 --k 2 --d 3``, a family with no table (exit
  2): exit code and stdout;
- ``sweep --kind half-conj --max-sum 12 --tspan 4`` in characteristics 0,
  2 and 3, the same sweep in characteristics 3, 2 and 0 (so that the
  field-independent data shared between characteristics is first computed
  in char p), ``sweep --kind injn``, ``sweep --kind conj-wlp-d456`` (the
  ``Irkd`` ideals, with many mixed generators) and ``sweep --kind
  aci3-mod3 --max-power 4`` (non-level ideals among them, whose levelness
  decides whether a decision scans down), and ``sweep --kind injn --seed
  7`` and ``sweep --kind half-conj --max-sum 6 --tspan 1 --seed 7`` (a
  seed other than the default, which the record envelope stamps): the
  exit code, the JSON-lines records without their ``wall_time`` field,
  and the CSV summary.

Where an exit code is not 0, the run's stderr is compared with it. The
outputs are compared in that order, every one of them: the tool prints
``same: NAME`` for each that is the same, and ``DIFFERENT: NAME`` with the
first line where the two trees part for each that is not. It exits 1 when
any output differed, and 0 when every output is the same.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HELP = ["hilbert", "wlp", "detm", "witness", "chain", "sweep", "verify-paper"]
# betti --family F with F's flags: each of the two table formulas of
# families.betti_table, and each family it maps onto them
BETTI = [("Irk(4,3)", ["irk", "--r", "4", "--k", "3"]),
         ("Jr(4)", ["jr", "--r", "4"]),
         ("Aci3(4,5,6,1,2,3)", ["aci3", "--a", "4", "--b", "5", "--c", "6",
                                "--alpha", "1", "--beta", "2", "--gamma",
                                "3"]),
         ("LevelAci(1,2,3,4)", ["levelaci", "--alpha", "1", "--beta", "2",
                                "--gamma", "3", "--t", "4"])]
COMMANDS = ([("lefschetz --help", ["--help"])]
            + [(f"{cmd} --help", [cmd, "--help"]) for cmd in HELP]
            + [("verify-paper", ["verify-paper"])]
            + [(f"witness --r {r} --json", ["witness", "--r", str(r), "--json"])
               for r in range(3, 7)]
            + [(f"detm ({a},{b},{g},{t}) --json",
                ["detm", "--alpha", str(a), "--beta", str(b), "--gamma",
                 str(g), "--t", str(t), "--json"])
               for a, b, g, t in ((3, 3, 3, 7), (7, 7, 7, 11), (2, 9, 13, 9))]
            + [(f"chain --r {r} --family {fam} --json",
                ["chain", "--r", str(r), "--family", fam, "--json"])
               for r in range(3, 8) for fam in ("irr", "jr")]
            + [("hilbert Jr(4) chars 0, 5 --json",
                ["hilbert", "--family", "jr", "--r", "4", "--char", "0",
                 "--char", "5", "--json"]),
               ("wlp Jr(4) chars 0, 2, 5 --json",
                ["wlp", "--family", "jr", "--r", "4", "--char", "0",
                 "--char", "2", "--char", "5", "--json"]),
               ("hilbert Irr(5) chars 2, 0 --json",
                ["hilbert", "--family", "irr", "--r", "5", "--char", "2",
                 "--char", "0", "--json"]),
               ("hilbert non-Artinian (x^2,y^3) chars 0, 2",
                ["hilbert", "--gens", "x^2,y^3", "--vars", "x,y,z", "--char",
                 "0", "--char", "2"]),
               ("hilbert non-Artinian (x^2,y^2+xy) chars 0, 2",
                ["hilbert", "--gens", "x^2,y^2+x*y", "--vars", "x,y,z",
                 "--char", "0", "--char", "2"]),
               ("wlp non-Artinian (x^2,y^2+xy) chars 0, 2 --json",
                ["wlp", "--gens", "x^2,y^2+x*y", "--vars", "x,y,z",
                 "--char", "0", "--char", "2", "--json"]),
               ("wlp Jr(4) chars 2, 0, 5 --json",
                ["wlp", "--family", "jr", "--r", "4", "--char", "2",
                 "--char", "0", "--char", "5", "--json"]),
               ("wlp LevelAci(1,2,3,4) chars 0, 2, 3 --json",
                ["wlp", "--family", "levelaci", "--alpha", "1", "--beta", "2",
                 "--gamma", "3", "--t", "4", "--char", "0", "--char", "2",
                 "--char", "3", "--json"]),
               ("wlp Irr(5) chars 0, 2, 5 --json",
                ["wlp", "--family", "irr", "--r", "5", "--char", "0",
                 "--char", "2", "--char", "5", "--json"]),
               ("wlp Irr(5) chars 5, 2, 0 --json",
                ["wlp", "--family", "irr", "--r", "5", "--char", "5",
                 "--char", "2", "--char", "0", "--json"]),
               ("wlp non-level (x^5,y^5,z^2,x*y^4,y^2*z,x*z) chars 0, 2 --json",
                ["wlp", "--gens", "x^5,y^5,z^2,x*y^4,y^2*z,x*z", "--vars",
                 "x,y,z", "--char", "0", "--char", "2", "--json"]),
               ("wlp non-level (x^5,y^5,z^2,x*y^4,y^2*z,x*z) chars 2, 0 --json",
                ["wlp", "--gens", "x^5,y^5,z^2,x*y^4,y^2*z,x*z", "--vars",
                 "x,y,z", "--char", "2", "--char", "0", "--json"]),
               ("wlp LevelAci(3,3,3,7) chars 2, 11, 0, 3, 5 --json",
                ["wlp", "--json", "--family", "levelaci", "--alpha", "3",
                 "--beta", "3", "--gamma", "3", "--t", "7", "--char", "2",
                 "--char", "11", "--char", "0", "--char", "3", "--char",
                 "5"]),
               ("wlp Irr(5) chars 2, 0, 5 --json",
                ["wlp", "--family", "irr", "--r", "5", "--char", "2",
                 "--char", "0", "--char", "5", "--json"])]
            + [(f"wlp LevelAci({a},{b},{g},{t}) chars 0, 2 --json",
                ["wlp", "--family", "levelaci", "--alpha", str(a), "--beta",
                 str(b), "--gamma", str(g), "--t", str(t), "--char", "0",
                 "--char", "2", "--json"])
               for a, b, g, t in ((2, 9, 13, 9), (3, 7, 14, 9))]
            + [(f"{cmd} (x^3,y^3,z^3,2x^2y+3y^2z+6xz^2) chars 0, 2, 3, 5"
                " --json",
                [cmd, "--gens", "x^3,y^3,z^3,2*x^2*y+3*y^2*z+6*x*z^2",
                 "--vars", "x,y,z", "--char", "0", "--char", "2", "--char",
                 "3", "--char", "5", "--json"])
               for cmd in ("hilbert", "wlp")]
            + [("wlp LevelAci(3,10,17,16) char 11448649999 --json",
                ["wlp", "--family", "levelaci", "--alpha", "3", "--beta", "10",
                 "--gamma", "17", "--t", "16", "--char", "11448649999",
                 "--json"]),
               ("wlp Jr(5) chars 3, 5, 7 --json",
                ["wlp", "--family", "jr", "--r", "5", "--char", "3",
                 "--char", "5", "--char", "7", "--json"]),
               ("wlp Jr(4) char 5 --strategy random --trials 8 --json",
                ["wlp", "--family", "jr", "--r", "4", "--char", "5",
                 "--strategy", "random", "--trials", "8", "--json"]),
               ("wlp Jr(4) chars 0, 5 --strategy allones --json",
                ["wlp", "--family", "jr", "--r", "4", "--char", "0",
                 "--char", "5", "--strategy", "allones", "--json"]),
               ("wlp Jr(3) chars 3, 7 --strategy paper --trials 2 --seed 9"
                " --json",
                ["wlp", "--family", "jr", "--r", "3", "--char", "3",
                 "--char", "7", "--strategy", "paper", "--trials", "2",
                 "--seed", "9", "--json"])]
            + [(f"hilbert Irkd({r},2,{d}) --json",
                ["hilbert", "--family", "irkd", "--r", str(r), "--k", "2",
                 "--d", str(d), "--json"]) for r, d in ((14, 4), (46, 2))]
            + [("wlp Irkd(14,2,4) chars 0, 2 --json",
                ["wlp", "--family", "irkd", "--r", "14", "--k", "2", "--d",
                 "4", "--char", "0", "--char", "2", "--json"])]
            + [(f"betti {name}{opt}", ["betti", "--family", *flags]
                + opt.split())
               for name, flags in BETTI for opt in ("", " --json")]
            + [("betti Irkd(4,2,3), no table",
                ["betti", "--family", "irkd", "--r", "4", "--k", "2", "--d",
                 "3"])])
HALF_CONJ = ["--kind", "half-conj", "--max-sum", "12", "--tspan", "4"]
SWEEPS = [("half-conj", HALF_CONJ + ["--char", "0", "--char", "2",
                                     "--char", "3"]),
          ("half-conj-reversed", HALF_CONJ + ["--char", "3", "--char", "2",
                                              "--char", "0"]),
          ("injn", ["--kind", "injn"]),
          ("conj-wlp-d456", ["--kind", "conj-wlp-d456"]),
          ("aci3-mod3-max-power-4", ["--kind", "aci3-mod3", "--max-power",
                                     "4"]),
          ("injn-seed-7", ["--kind", "injn", "--seed", "7"]),
          ("half-conj-seed-7", ["--kind", "half-conj", "--max-sum", "6",
                                "--tspan", "1", "--seed", "7"])]


def lefschetz(tree: Path, args: list, cwd: str) -> tuple:
    """(status, stdout) of one CLI run against tree's sources: the status
    is the exit code, followed by stderr when the exit code is not 0."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "lefschetz.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    status = f"exit {proc.returncode}"
    if proc.returncode:
        status += f"\nstderr:\n{proc.stderr}"
    return status, proc.stdout


def sweep_outputs(tree: Path, name: str, args: list):
    """Yield a sweep's status (its stdout names a temporary file), its
    records without wall_time, and its CSV summary."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.jsonl"
        status, _ = lefschetz(tree, ["sweep", *args, "--out", str(out)], tmp)
        yield f"sweep {name}: exit code", status
        records = []
        lines = out.read_text(encoding="utf-8") if out.exists() else ""
        for line in lines.splitlines():
            rec = json.loads(line)
            rec.pop("wall_time", None)
            records.append(json.dumps(rec))
        yield f"sweep {name}: records", "\n".join(records)
        csv = out.with_suffix(".csv")
        yield f"sweep {name}: CSV", (csv.read_text(encoding="utf-8")
                                     if csv.exists() else "")


def outputs(tree: Path):
    """Yield (name, text) for every compared output of tree, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in COMMANDS:
            status, stdout = lefschetz(tree, args, tmp)
            yield name, f"{status}\n{stdout}"
    for name, args in SWEEPS:
        yield from sweep_outputs(tree, name, args)


def first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}:\n  base:   {x}\n  change: {y}"
    i = min(len(la), len(lb)) + 1
    return f"line {i}: base has {len(la)} lines, change has {len(lb)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base-tree", type=Path, required=True)
    args = ap.parse_args(argv)
    base = args.base_tree.resolve()
    if not (base / "src" / "lefschetz" / "__init__.py").is_file():
        ap.error(f"no lefschetz sources under {base / 'src'}")
    differed = False
    for (name, a), (_, b) in zip(outputs(base), outputs(ROOT)):
        if a == b:
            print(f"same: {name}")
        else:
            print(f"DIFFERENT: {name}, {first_difference(a, b)}")
            differed = True
    return int(differed)


if __name__ == "__main__":
    sys.exit(main())
