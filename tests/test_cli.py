import json

import pytest

from lefschetz.cli import main
from lefschetz.sweeps import payload_without_wall_time


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_hilbert_family(capsys):
    code, out = run(capsys, "hilbert", "--family", "irkd",
                    "--r", "3", "--k", "3", "--d", "3")
    assert code == 0
    assert out.strip() == "1 3 6 6 3"


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


def test_usage_error_char_too_large_for_int64_ranks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wlp", "--gens", "x^2,y^2", "--vars", "x,y",
              "--char", "2199023255579"])
    assert exc.value.code == 2


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


def test_usage_error_bad_gens(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--gens", "x^2 +", "--vars", "x,y"])
    assert exc.value.code == 2


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

