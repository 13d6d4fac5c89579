import csv
import dataclasses
import inspect
import json
import typing

import pytest

from lefschetz.cli import FAMILIES, SWEEP_BOUNDS, build_parser, main
from lefschetz.families import FamilySpec
from lefschetz.sweeps import SWEEPS, payload_without_wall_time, run_sweep


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_hilbert_family(capsys):
    code, out = run(capsys, "hilbert", "--family", "irkd",
                    "--r", "3", "--k", "3", "--d", "3")
    assert code == 0
    assert out.strip() == "1 3 6 6 3"


def test_hilbert_family_with_over_a_thousand_mixed_generators(capsys):
    # Irkd(14,2,4): 14 squares and 1001 squarefree quartics
    code, out = run(capsys, "hilbert", "--family", "irkd",
                    "--r", "14", "--k", "2", "--d", "4")
    assert code == 0
    assert out.strip() == "1 14 91 364"


def test_hilbert_gens_json(capsys):
    code, out = run(capsys, "hilbert", "--gens", "x^2,y^2,z^2",
                    "--vars", "x,y,z", "--json")
    assert code == 0
    assert json.loads(out) == {"char": 0, "hilbert": [1, 3, 3, 1]}


def test_wlp_text(capsys):
    code, out = run(capsys, "wlp", "--gens", "x^2,y^2,z^2",
                    "--vars", "x,y,z", "--char", "0")
    assert code == 0
    assert out.strip() == "WLP: holds (conclusive)"


def test_wlp_multiple_chars_json(capsys):
    code, out = run(capsys, "wlp", "--family", "levelaci", "--alpha", "3",
                    "--beta", "3", "--gamma", "3", "--t", "7",
                    "--char", "0", "--char", "2", "--json")
    records = json.loads(out)
    assert code == 0
    assert records[0]["has_wlp"] is True
    assert records[1]["has_wlp"] is False and records[1]["char"] == 2


def test_detm_json(capsys):
    code, out = run(capsys, "detm", "--alpha", "3", "--beta", "3",
                    "--gamma", "3", "--t", "7", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["det"] == "78408"
    assert rec["factors"] == {"2": 3, "3": 4, "11": 2}
    assert rec["failing_characteristics"] == [2, 3, 11]


def test_detm_zero(capsys):
    code, out = run(capsys, "detm", "--alpha", "1", "--beta", "1",
                    "--gamma", "1", "--t", "2")
    assert code == 0
    assert "every characteristic" in out


def test_witness(capsys):
    code, out = run(capsys, "witness", "--r", "3")
    assert code == 0
    assert "both hold" in out


def test_chain_json(capsys):
    code, out = run(capsys, "chain", "--r", "3", "--json")
    rows = json.loads(out)
    assert code == 0
    assert rows[-1]["hvector"] == [1, 3, 6, 6, 3]


def test_betti(capsys):
    code, out = run(capsys, "betti", "--family", "irk", "--r", "3", "--k", "3")
    assert code == 0
    assert "R(-7)^3" in out


def test_usage_error_missing_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--family", "irk", "--r", "3"])
    assert exc.value.code == 2


def test_usage_error_bad_char(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wlp", "--gens", "x^2,y^2", "--vars", "x,y", "--char", "4"])
    assert exc.value.code == 2


def test_wlp_char_past_2_32_decides_levelaci_failure(capsys):
    # 11448649999 divides det M of LevelAci(3, 10, 17, 16); every prime
    # that is_prime decides is a --char
    code, out = run(capsys, "wlp", "--family", "levelaci", "--alpha", "3",
                    "--beta", "10", "--gamma", "17", "--t", "16",
                    "--char", "11448649999", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["char"] == 11448649999
    assert not rec["has_wlp"] and rec["conclusive"]
    assert rec["failure_degrees"] == [34]


def test_usage_error_char_past_what_is_prime_decides(capsys):
    char = "3317044064679887385961981"  # psi_13
    with pytest.raises(SystemExit) as exc:
        main(["wlp", "--gens", "x^2,y^2", "--vars", "x,y", "--char", char])
    assert exc.value.code == 2
    assert f"--char {char}" in capsys.readouterr().err


def test_csv_flag_rejected(capsys):
    # --json is the only output switch; --csv was accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--gens", "x^2,y^2", "--vars", "x,y", "--csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["hilbert", "wlp"])
def test_usage_error_unit_ideal(capsys, command):
    # a constant generator used to end in a bare TypeError (wlp) or an
    # empty Hilbert function (hilbert)
    with pytest.raises(SystemExit) as exc:
        main([command, "--gens", "x^2,y^2,1", "--vars", "x,y"])
    assert exc.value.code == 2
    assert "degree 0" in capsys.readouterr().err


def test_usage_error_trials_below_one(capsys):
    # this ended in a traceback: AttributeError on a verdict of None
    with pytest.raises(SystemExit) as exc:
        main(["wlp", "--family", "jr", "--r", "3", "--strategy", "random",
              "--trials", "0"])
    assert exc.value.code == 2
    assert "trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--family", "jr", "--r", "4", "--char", "5", "--strategy", "allones",
     "--seed", "3"],
    ["--family", "jr", "--r", "4", "--strategy", "allones", "--trials", "2"],
    ["--family", "irr", "--r", "4", "--seed", "3"],
    ["--family", "irr", "--r", "4", "--strategy", "paper", "--trials", "2",
     "--seed", "3"]], ids=["allones-seed", "allones-trials",
                           "paper-monomial-seed", "paper-monomial-both"])
def test_usage_error_trials_and_seed_where_nothing_is_drawn(capsys, argv):
    # these echoed a seed from which no form was drawn
    with pytest.raises(SystemExit) as exc:
        main(["wlp", *argv])
    assert exc.value.code == 2
    assert "draws no random form" in capsys.readouterr().err


def test_random_strategy_draws_on_a_monomial_ideal(capsys):
    # this tried the all-ones form alone: forms_tried 1, conclusive
    code, out = run(capsys, "wlp", "--family", "irr", "--r", "4",
                    "--strategy", "random", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "char": 0, "has_wlp": False, "conclusive": False,
        "failure_degrees": [5], "forms_tried": 5, "seed": 3}


def test_paper_strategy_takes_trials_and_seed_where_it_draws(capsys):
    code, out = run(capsys, "wlp", "--family", "jr", "--r", "4", "--char",
                    "5", "--trials", "2", "--seed", "9", "--json")
    assert code == 0
    assert json.loads(out) == {
        "char": 5, "has_wlp": False, "conclusive": True,
        "failure_degrees": [4, 5], "forms_tried": 8, "seed": 9}


def test_default_seed_is_echoed(capsys):
    code, out = run(capsys, "wlp", "--family", "irr", "--r", "4", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 0xC0C0A


def test_usage_error_bad_gens(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--gens", "x^2 +", "--vars", "x,y"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["hilbert", "--gens", "x^2,y^3", "--vars", "x,y,z"],
     "variable index 2 has no pure power"),
    (["hilbert", "--gens", "x^2,y^2+x*y", "--vars", "x,y,z"],
     "no vanishing slice below degree cap 4"),
    (["wlp", "--gens", "x^2,y^2+x*y", "--vars", "x,y,z", "--json"],
     "no vanishing slice below degree cap 4"),
    # det M keeps a cofactor with no prime factor up to 10^6
    (["detm", "--alpha", "2", "--beta", "19", "--gamma", "33", "--t", "26"],
     "incomplete factorization of 8045883799938672755"),
])
def test_fact_about_the_input_exits_1_with_one_line(capsys, argv, message):
    """A non-Artinian quotient or a det M that factor leaves unresolved is
    an answer about the input: exit 1 and one stderr line, with no usage
    banner and no traceback."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert captured.err.startswith("lefschetz: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert "usage:" not in captured.err and "Traceback" not in captured.err


def test_sweep_reproducible(tmp_path, capsys):
    p1 = tmp_path / "one.jsonl"
    p2 = tmp_path / "two.jsonl"
    for p in (p1, p2):
        code, out = run(capsys, "sweep", "--kind", "injn", "--out", str(p))
        assert code == 0
        assert "records written" in out
    assert payload_without_wall_time(p1) == payload_without_wall_time(p2)
    assert (tmp_path / "one.csv").exists()


def test_sweep_half_conj_cases_degenerate(tmp_path, capsys):
    out_path = tmp_path / "half.jsonl"
    code, _ = run(capsys, "sweep", "--kind", "half-conj", "--out",
                  str(out_path), "--max-sum", "9", "--tspan", "3")
    assert code == 0
    for line in out_path.read_text().splitlines():
        rec = json.loads(line)
        if rec["predicates"]["conjecture_case"] != "none":
            assert rec["det"] == "0"


def test_sweep_cap_enforced(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "aci3-mod3", "--out",
              str(tmp_path / "x.jsonl"), "--max-power", "9"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("char", ["4", "3317044064679887385961981"])
def test_sweep_char_checked_as_for_wlp(tmp_path, capsys, char):
    # the first ran or left an empty .jsonl: 4 is not prime; the second is
    # past what is_prime decides, and must be named as a --char
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "half-conj", "--max-sum", "3", "--tspan",
              "0", "--char", char, "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2
    assert f"--char {char}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, flags", [
    ("half-conj", ["--max-power", "3"]),
    ("conj-wlp-d456", ["--max-sum", "6", "--tspan", "1", "--max-power", "3"]),
    ("aci3-mod3", ["--char", "0", "--max-sum", "6", "--tspan", "1"]),
    ("injn", ["--char", "5", "--max-sum", "6", "--tspan", "1",
              "--max-power", "3"]),
])
def test_sweep_refuses_a_flag_its_kind_does_not_take(tmp_path, capsys, kind,
                                                     flags):
    # each was dropped: --kind injn --char 5 wrote 12 char-0 records
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", kind, "--out", str(tmp_path / "x.jsonl"),
              *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_run_sweep_stamps_its_seed_and_passes_it_to_injn_only(tmp_path):
    path = tmp_path / "injn.jsonl"
    assert run_sweep("injn", path, seed=7, ns=(2,), num_seeds=2) == 3
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["params"]["form_seed"] for r in recs] == [0, 7, 8]
    for rec in recs:
        assert list(rec)[:3] == ["schema_version", "kind", "seed"]
        assert list(rec)[-1] == "wall_time"
        assert (rec["kind"], rec["seed"]) == ("injn", 7)
    with pytest.raises(ValueError, match="--char"):
        run_sweep("injn", tmp_path / "bad.jsonl", char=(5,))
    assert not (tmp_path / "bad.jsonl").exists()


def test_two_sweeps_into_one_out_append_to_both_files(tmp_path, capsys):
    # the CSV was rewritten: two runs left 24 JSON lines and 13 CSV lines
    out = tmp_path / "y.jsonl"
    for seed in ("7", "8"):
        code, _ = run(capsys, "sweep", "--kind", "injn", "--seed", seed,
                      "--out", str(out))
        assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 24
    assert [r["seed"] for r in recs] == [7] * 12 + [8] * 12
    with out.with_suffix(".csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "params", "verdicts", "det", "seed"]
    assert rows[1:] == [[r["kind"], json.dumps(r["params"]),
                         json.dumps(r["verdicts"]), "", str(r["seed"])]
                        for r in recs]


def test_every_sweep_bound_flag_is_taken_by_some_kind():
    args = build_parser().parse_args(["sweep", "--kind", "injn", "--out",
                                      "x.jsonl"])
    for name in SWEEP_BOUNDS:
        assert hasattr(args, name)
        assert any(name in inspect.signature(generator).parameters
                   for generator in SWEEPS.values()), name


def test_family_table_covers_every_spec_with_its_required_fields():
    assert {cls for cls, _ in FAMILIES.values()} == \
        set(typing.get_args(FamilySpec))
    for cls, flags in FAMILIES.values():
        required = tuple(f.name for f in dataclasses.fields(cls)
                         if f.default is dataclasses.MISSING)
        assert flags == required, cls.__name__


@pytest.mark.parametrize("argv, named", [
    # printed 1 3 6 6 3 for Jr(3), dropping --N and --alpha
    (["hilbert", "--family", "jr", "--r", "3", "--N", "5", "--alpha", "2"],
     ["--N", "--alpha"]),
    # used the generators and dropped the family
    (["hilbert", "--gens", "x^2,y^2,z^2", "--vars", "x,y,z", "--family",
      "irr", "--r", "3"], ["--family", "--gens"]),
    (["wlp", "--family", "irr", "--r", "3", "--vars", "x,y,z"],
     ["--family", "--vars"]),
    (["hilbert", "--gens", "x^2,y^2,z^2", "--vars", "x,y,z", "--r", "3"],
     ["--r"]),
    (["betti", "--family", "irk", "--r", "3", "--k", "3", "--t", "2"],
     ["--t"]),
    (["betti", "--family", "irk", "--r", "3"], ["--k"]),
    # betti took --gens/--vars, ignored them and asked for them
    (["betti", "--gens", "x^2,y^2", "--vars", "x,y"], ["--gens"]),
])
def test_quotient_refuses_a_flag_its_input_does_not_take(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for flag in named:
        assert flag in err

