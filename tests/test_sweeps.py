"""Every sweep kind, run through run_sweep at small bounds: each record
carries its envelope and agrees with a fact known about its point."""

import json

import pytest

from lefschetz.criterion import criterion_report
from lefschetz.families import Irkd, make_ideal
from lefschetz.fields import FieldSpec
from lefschetz.sweeps import SCHEMA_VERSION, SWEEPS, run_sweep
from lefschetz.wlp import DEFAULT_SEED, wlp_check

CHARS = (0, 2, 3, 5)


def _half_conj(rec):
    # the WLP fails in char p exactly when p divides det M (the paper's
    # criterion; det M = 0 fails in every characteristic)
    p = rec["params"]
    rep = criterion_report(p["alpha"], p["beta"], p["gamma"], p["t"])
    return rec["verdicts"] == {str(ch): not rep.fails_in(ch) for ch in CHARS}


def _conj_wlp(rec):
    p = rec["params"]
    verdicts = {str(ch): wlp_check(make_ideal(Irkd(p["r"], p["k"], p["d"]),
                                              FieldSpec(ch)), FieldSpec(ch))
                for ch in (0, 2)}
    return (rec["verdicts"] == {ch: v.has_wlp for ch, v in verdicts.items()}
            and rec["failure_degrees"]
            == {ch: v.failure_degrees for ch, v in verdicts.items()})


def _aci3(rec):
    # a char-0 failure needs a+b+c+alpha+beta+gamma divisible by 3
    return rec["verdicts"]["0"] or rec["mod3_obstruction"]


def _injn(rec):
    # criterion 11: the power variant holds for N = 2 and fails for N = 3;
    # the general variant holds; a verdict that holds is conclusive
    p = rec["params"]
    holds = p["variant"] == "general" or p["N"] == 2
    return rec["verdicts"] == {"0": holds} and (rec["conclusive"] or not holds)


KINDS = {"half-conj": (dict(max_sum=9, tspan=2, char=CHARS), _half_conj),
         "conj-wlp-d456": (dict(char=(0, 2)), _conj_wlp),
         "aci3-mod3": (dict(max_power=3), _aci3),
         "injn": (dict(ns=(2, 3), num_seeds=1), _injn)}


def test_every_sweep_kind_is_run():
    assert set(KINDS) == set(SWEEPS)


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_records_agree_with_a_known_fact(tmp_path, kind):
    bounds, fact = KINDS[kind]
    out = tmp_path / "sweep.jsonl"
    n = run_sweep(kind, out, **bounds)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert n == len(records) > 0
    for rec in records:
        assert (rec["schema_version"], rec["kind"], rec["seed"]) == (
            SCHEMA_VERSION, kind, DEFAULT_SEED)
        assert fact(rec), rec
