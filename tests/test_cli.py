"""Command-line behaviour, exit codes and JSON determinism."""

import ast
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wgk import cli, matcher, oracle, orbifold_rr, sections
from wgk import wgrass25, wogr510
from wgk.series import HilbertSeries, LaurentPoly, denominator_poly

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_wgr(capsys):
    code, out, _ = run(capsys, "info", "wgr", "--w", "1/2,1/2,1/2,1/2,3/2")
    assert code == 0
    assert "P(1^6,2^4)" in out
    assert "[2, 3, 3, 3, 3]" in out
    assert "degree = 13/16" in out
    assert "K = O(-7)" in out


def test_info_wogr(capsys):
    code, out, _ = run(capsys, "info", "wogr", "--w", "0,0,1,1,2", "--u", "1")
    assert code == 0
    assert "P(1^2,2^4,3^4,4^4,5^2)" in out
    assert "K = O(-24)" in out


def test_info_straight_degree(capsys):
    code, out, _ = run(capsys, "info", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2")
    assert code == 0
    assert "degree = 5" in out


def test_info_doubled_weights(capsys):
    code, out, _ = run(capsys, "info", "wgr", "--w", "1,1,1,1,3", "--doubled")
    assert code == 0
    assert "P(1^6,2^4)" in out


def test_info_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "info", "wgr", "--w", "1/3,1,1,1,1")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "info", "wogr", "--w", "0,0,0,0,0", "--u", "0")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_names_corrupted_identity(capsys, monkeypatch):
    from wgk import spinor
    wogr510.equations()          # prime caches with the honest table
    spinor.spinor_graph()
    good = wgrass25.pfaffian_equations()

    def corrupted():
        pfs = list(good)
        pfs[0] = -pfs[0]
        return pfs

    monkeypatch.setattr(wgrass25, "pfaffian_equations", corrupted)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL identity (a)" in out


def test_verify_json_is_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--json")
    code2, out2, _ = run(capsys, "verify", "--json")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["ok"] is True


def test_rr_can3(capsys):
    code, out, _ = run(capsys, "rr", "can3", "--pg", "7", "--k3", "21",
                       "--half", "2", "--expand", "8")
    assert code == 0
    assert out.strip() == "1 7 29 83 190 370 645 1035 1562"


def test_rr_warns_of_non_integral_values_as_fractions(capsys):
    argv = ("rr", "can3", "--pg", "7", "--k3", "21/2", "--expand", "4")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == "1 7 93/4 225/4 231/2\n"
    assert err == "warning: non-integral or negative values 93/4, 225/4, 231/2\n"
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == "" and json.loads(out)["integral"] is False


def test_rr_cy3(capsys):
    code, out, _ = run(capsys, "rr", "cy3", "--a3", "6/5", "--ac2", "108/5",
                       "--point", "5:0,0,-1/5,1/5,0", "--expand", "8")
    assert code == 0
    assert out.strip() == "1 2 5 11 20 34 54 81 117"


def test_section_command(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(
        {"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}))
    code, out, _ = run(capsys, "section", "--model", str(model),
                       "--cut", "2,2,2", "--invariants", "--basket")
    assert code == 0
    assert "A^3 = 13/2" in out
    assert "h^0 = 6" in out
    assert "1/2(1,1,1) x 1" in out
    assert "K = O(-1)" in out


def test_section_basket_notes_a_point_that_is_not_isolated(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [0, 2, 2, 4, 8], "u2": 0}))
    code, out, _ = run(capsys, "section", "--model", str(model), "--cut", "5,5,6", "--basket")
    assert code == 0
    assert "singularity 1/4(1,1,2) x 1" in out
    assert "note: singular type 1/4(1,1,2) is not isolated" in out


def test_section_roundtrip_json(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(
        {"family": "wogr510", "w2": [0, 0, 2, 2, 4], "u2": 2}))
    code, out, _ = run(capsys, "section", "--model", str(model),
                       "--cut", "2,2,3,4,4,4,5", "--roundtrip", "cy3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["roundtrip"]["ok"] is True
    assert data["canonical"] == 0


def test_section_roundtrip_of_a_lone_third_point(tmp_path, capsys):
    # basket 1/3(1,1,1) alone: its local term no longer needs a partner
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [1, 1, 1, 1, 5], "u2": 0}))
    code, out, _ = run(capsys, "section", "--model", str(model),
                       "--cut", "3,3,3", "--roundtrip", "cy3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["roundtrip"] == {"ok": True, "first_mismatch": None}


def test_section_roundtrip_refuses_a_point_that_is_not_isolated(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [0, 2, 2, 4, 8], "u2": 0}))
    code, out, err = run(capsys, "section", "--model", str(model),
                         "--cut", "5,5,6", "--roundtrip", "cy3", "--json")
    assert code == 2 and out == ""
    assert err == ("error: a cy3 round trip needs isolated points; "
                   "the basket holds 1/4(1,1,2)\n")


def test_a_section_with_basket_and_roundtrip_is_analysed_once(tmp_path, capsys, monkeypatch):
    """The round trip takes the basket of the analysis the command prints."""
    calls = []
    original = sections.singularity_analysis

    def counted(model, cut):
        calls.append(cut)
        return original(model, cut)

    for module in (cli, sections):
        monkeypatch.setattr(module, "singularity_analysis", counted)
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wogr510", "w2": [0, 0, 2, 2, 4], "u2": 2}))
    code, out, _ = run(capsys, "section", "--model", str(model), "--cut", "2,2,3,4,4,4,5",
                       "--basket", "--roundtrip", "cy3")
    assert code == 0 and "singularity 1/5(3,3,4) x 1" in out and "round trip: ok" in out
    assert calls == [(2, 2, 3, 4, 4, 4, 5)]


@pytest.mark.parametrize("as_json", [False, True])
def test_failed_roundtrip_prints_fractions_and_exits_3(tmp_path, capsys, monkeypatch, as_json):
    # a rebuilt series that is off by t^2/2: the section has P(2) = 29
    def off(data):
        honest = orbifold_rr.hilbert_series(data)
        nudge = LaurentPoly({2: Fraction(1, 2)}) * denominator_poly(honest.denominator)
        return HilbertSeries(honest.numerator + nudge, honest.denominator)
    monkeypatch.setattr(orbifold_rr, "hilbert_can3", off)
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": 2}))
    argv = ["section", "--model", str(model), "--cut", "1,2,2,2,2,2,2", "--roundtrip", "canonical3"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 3 and err == ""
    if as_json:
        assert json.loads(out)["roundtrip"] == {"ok": False, "first_mismatch": ["2", "29", "59/2"]}
    else:
        assert out == "round trip FAILED at (2, 29, 59/2)\n"


@pytest.mark.parametrize("model_json, cut, kind, message", [
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}, "2,2,2", "canonical3",
                 "a canonical3 round trip needs K = O(1); this section has K = O(-1)",
                 id="model_json0-2,2,2-canonical3-a canonical3 round trip needs K = O(1); this section has K = O(-1)"),
    pytest.param({"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": 2}, "1,2,2,2,2,2,2", "cy3",
                 "a cy3 round trip needs K = O(0); this section has K = O(1)",
                 id="model_json1-1,2,2,2,2,2,2-cy3-a cy3 round trip needs K = O(0); this section has K = O(1)"),
    pytest.param({"family": "wogr510", "w2": [0, 0, 2, 2, 4], "u2": 2}, "2,2,3,4,4,4,5",
                 "canonical3", "a canonical3 round trip needs K = O(1); this section has K = O(0)",
                 id="model_json2-2,2,3,4,4,4,5-canonical3-a canonical3 round trip needs K = O(1); this section has K = O(0)"),
])
def test_a_roundtrip_kind_that_does_not_fit_the_section_exits_2(tmp_path, capsys, model_json,
                                                                cut, kind, message):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_json))
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "section", "--model", str(model), "--cut", cut,
                             "--roundtrip", kind, *extra)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_match_command(tmp_path, capsys):
    rr = tmp_path / "cy3.json"
    rr.write_text(json.dumps({
        "kind": "cy3", "A3": "6/5", "Ac2": "108/5",
        "points": [
            {"r": 5, "weights": [3, 3, 4], "c": ["0", "0", "-1/5", "1/5", "0"]},
            {"r": 3, "weights": [1, 1, 1]},
            {"r": 3, "weights": [2, 2, 2]}]}))
    code, out, _ = run(capsys, "match", "--rr", str(rr))
    assert code == 0
    assert "accepted: wOGr(5,10; w=(0,0,1,1,2), u=1)" in out
    assert "rejected: cone[1] over wGr(2,5; w=(1,1,1,2,2)) ∩ (6)" in out
    assert "no coordinate weight divisible by 5" in out


def test_match_can3(tmp_path, capsys):
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21",
                              "half_points": 2}))
    code, out, _ = run(capsys, "match", "--rr", str(rr))
    assert code == 0
    assert "accepted: wOGr(5,10; w=(0,0,0,0,1), u=1)" in out


CY3_POINTS = [{"r": 5, "weights": [3, 3, 4], "c": ["0", "0", "-1/5", "1/5", "0"]},
              {"r": 3, "weights": [1, 1, 1]}, {"r": 3, "weights": [2, 2, 2]}]


def test_match_takes_a_missing_c_from_the_local_term(tmp_path, capsys):
    outputs = []
    for fifth in (CY3_POINTS[0], {"r": 5, "weights": [3, 3, 4]}):
        rr = tmp_path / "cy3.json"
        rr.write_text(json.dumps({"kind": "cy3", "A3": "6/5", "Ac2": "108/5",
                                  "points": [fifth] + CY3_POINTS[1:]}))
        code, out, err = run(capsys, "match", "--rr", str(rr), "--json")
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1])["report"]["candidates"][0]["accepted"] is True


@pytest.mark.parametrize("point, message", [
    pytest.param({"r": 5, "weights": [3, 3, 4], "c": ["0", "0", "1/5", "-1/5", "0"]},
                 "points[0] 1/5(3,3,4): c is (0, 0, 1/5, -1/5, 0), but its local term is "
                 "(0, 0, -1/5, 1/5, 0)",
                 id="point0-points[0] 1/5(3,3,4): c is (0, 0, 1/5, -1/5, 0), but its local term is (0, 0, -1/5, 1/5, 0)"),
    pytest.param({"r": 1, "c": [0], "weights": [0, 0, 0]},
                 "points[0] has order 1; a quotient point needs r >= 2",
                 id="point1-points[0] has order 1; a quotient point needs r >= 2"),
    pytest.param({"r": 0, "weights": []}, "points[0] has order 0; a quotient point needs r >= 2",
                 id="point2-points[0] has order 0; a quotient point needs r >= 2"),
    pytest.param({"r": 4, "weights": [1, 2, 1]},
                 "points[0]: 1/4(1,2,1) is not an isolated cyclic point",
                 id="point3-points[0]: 1/4(1,2,1) is not an isolated cyclic point"),
    pytest.param({"r": 5, "c": ["0", "0", "1"]}, "points[0]: need exactly r = 5 values, got 3",
                 id="point4-points[0]: need exactly r = 5 values, got 3"),
    pytest.param({"r": 5, "weights": [3, 3]}, "points[0]: a 3-fold point needs 3 weights, got 2",
                 id="point5-points[0]: a 3-fold point needs 3 weights, got 2"),
    pytest.param({"r": 5, "weights": [3, 3, 4, 1]},
                 "points[0]: a 3-fold point needs 3 weights, got 4",
                 id="point6-points[0]: a 3-fold point needs 3 weights, got 4"),
    pytest.param({"r": 5}, "points[0]: a point needs its weights or a c table",
                 id="point7-points[0]: a point needs its weights or a c table"),
])
def test_match_refuses_a_point_by_name(tmp_path, capsys, point, message):
    rr = tmp_path / "cy3.json"
    rr.write_text(json.dumps({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [point]}))
    code, out, err = run(capsys, "match", "--rr", str(rr))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_match_on_a_target_that_is_not_an_integer_polynomial_builds_no_model(
        tmp_path, capsys, monkeypatch):
    built = []
    for cls in (wgrass25.GrWeights, wogr510.OGrWeights):
        monkeypatch.setattr(cls, "hilbert_series", lambda self: built.append(self))
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21/2"}))
    code, out, _ = run(capsys, "match", "--rr", str(rr))
    assert code == 0
    assert "no candidates within bounds" in out
    assert built == []


def test_match_refuses_the_removed_residue_forcing_switch(capsys):
    # the pipeline always tries the residue-forced generators
    with pytest.raises(SystemExit) as exc:
        cli.main(["match", "--rr", str(ROOT / "perfbench/data/cy3.json"),
                  "--no-residue-forcing"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-residue-forcing" in capsys.readouterr().err


def test_match_json_report(tmp_path, capsys):
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21",
                              "half_points": 2}))
    code, out, _ = run(capsys, "match", "--rr", str(rr), "--json")
    assert code == 0
    data = json.loads(out)
    accepted = [c for c in data["report"]["candidates"] if c["accepted"]]
    assert len(accepted) == 1
    cand = accepted[0]
    assert cand["model"] == {"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": 2}
    assert cand["generators"] == [1] * 7 + [2, 2]
    # report carries the candidate's numerator for provenance
    assert [0, 1, 1] in cand["numerator"] and [3, -8, 1] in cand["numerator"]


def test_match_rejects_malformed_file(tmp_path, capsys):
    rr = tmp_path / "bad.json"
    rr.write_text("{\"kind\": \"nope\"}")
    code, _, err = run(capsys, "match", "--rr", str(rr))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("data, named", [
    pytest.param({"w2": [1, 1, 1, 1, 1]}, "'family'", id="data0-'family'"),
    pytest.param({"family": "wgr25"}, "'w2'", id="data1-'w2'"),
    pytest.param([1, 1, 1, 1, 1], "list", id="data2-list"),
    pytest.param({"family": "wgr25", "w2": 5}, "int", id="data3-int"),
    # JSON decimals are read exactly, and an integer field must be integral
    pytest.param({"family": "wgr25", "w2": [1.7, 1, 1, 1, 3]}, "w2 must be an integer, not 17/10",
                 id="data4-w2 must be an integer, not 17/10"),
    pytest.param({"family": "wgr25", "w2": ["1/2", 1, 1, 1, 3]}, "w2 must be an integer, not 1/2",
                 id="data5-w2 must be an integer, not 1/2"),
    pytest.param({"family": "wogr510", "w2": [0, 0, 0, 0, 0], "u2": 2.5}, "u2 must be an integer",
                 id="data6-u2 must be an integer"),
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 1], "cone": [1, 0.5]},
                 "cone must be an integer", id="data7-cone must be an integer"),
    pytest.param({"family": "wgr25", "w2": [True, 1, 1, 1, 1]}, "w2 must be an integer, not True",
                 id="data8-w2 must be an integer, not True"),
    pytest.param({"family": "wgr25", "w2": [float("inf"), 1, 1, 1, 1]}, "Infinity is not a number",
                 id="data9-Infinity is not a number"),
    # a key outside family, w2, u2 and cone is refused, not ignored
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 1], "u": 2},
                 "error: model has an unknown key 'u'\n",
                 id="data10-error: model has an unknown key 'u'\n"),
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 1], "cones": [1]},
                 "error: model has an unknown key 'cones'\n",
                 id="data11-error: model has an unknown key 'cones'\n"),
    # w2 and cone are lists, not strings read by character or numbers
    pytest.param({"family": "wogr510", "w2": "00224", "u2": 2},
                 "error: w2 must be a JSON list, not str\n",
                 id="data12-error: w2 must be a JSON list, not str\n"),
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 1], "cone": "11"},
                 "error: cone must be a JSON list, not str\n",
                 id="data13-error: cone must be a JSON list, not str\n"),
    pytest.param({"family": "wgr25", "w2": [1, 1, 1, 1, 1], "cone": 1},
                 "error: cone must be a JSON list, not int\n",
                 id="data14-error: cone must be a JSON list, not int\n"),
    pytest.param({"family": "wogr510", "w2": [0, 0, 0, 0, 2], "u2": [2]},
                 "error: u2 must be an integer, not [2]\n",
                 id="data15-error: u2 must be an integer, not [2]\n"),
])
def test_section_malformed_model_exits_2(tmp_path, capsys, data, named):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(data))
    code, out, err = run(capsys, "section", "--model", str(model))
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("data, named", [
    pytest.param({"kind": "cy3", "A3": "1"}, "'Ac2'", id="data0-'Ac2'"),
    pytest.param({"kind": "can3", "K3": "21"}, "'pg'", id="data1-'pg'"),
    pytest.param({"kind": "cy3", "A3": "1", "Ac2": "1", "points": [5]}, "int", id="data2-int"),
    pytest.param(["can3"], "list", id="data3-list"),
    pytest.param({"kind": "can3", "pg": 7.9, "K3": "21"}, "pg must be an integer, not 79/10",
                 id="data4-pg must be an integer, not 79/10"),
    pytest.param({"kind": "can3", "pg": 7, "K3": "21", "half_points": 1.5},
                 "half_points must be an integer", id="data5-half_points must be an integer"),
    pytest.param({"kind": "cy3", "A3": "1", "Ac2": "1", "points": [{"r": 2.5, "c": ["0", "0"]}]},
                 "r must be an integer", id="data6-r must be an integer"),
    pytest.param({"kind": "cy3", "A3": "1", "Ac2": "1", "points": [{"r": 5, "weights": [3, 3, 4.5]}]},
                 "weights must be an integer", id="data7-weights must be an integer"),
    pytest.param({"kind": "can3", "pg": float("-inf"), "K3": "21"}, "-Infinity is not a number",
                 id="data8--Infinity is not a number"),
    pytest.param({"kind": "can3", "pg": 7, "K3": float("nan")}, "NaN is not a number",
                 id="data9-NaN is not a number"),
    # a boolean is not read as 1 or 0
    pytest.param({"kind": "can3", "pg": 7, "K3": True, "half_points": 2},
                 "K3 must be a number, not a boolean",
                 id="data10-K3 must be a number, not a boolean"),
    pytest.param({"kind": "cy3", "A3": False, "Ac2": "1"}, "A3 must be a number, not a boolean",
                 id="data11-A3 must be a number, not a boolean"),
    pytest.param({"kind": "cy3", "A3": "1", "Ac2": True}, "Ac2 must be a number, not a boolean",
                 id="data12-Ac2 must be a number, not a boolean"),
    pytest.param({"kind": "cy3", "A3": "1", "Ac2": "1", "points": [{"r": 2, "c": [0, True]}]},
                 "c must be a number, not a boolean",
                 id="data13-c must be a number, not a boolean"),
    # each kind, and each point, takes only its own keys
    pytest.param({"kind": "can3", "pg": 7, "K3": "21", "half_point": 2},
                 "error: rr data has an unknown key 'half_point'\n",
                 id="data14-error: rr data has an unknown key 'half_point'\n"),
    pytest.param({"kind": "can3", "pg": 7, "K3": "21", "points": []},
                 "error: rr data has an unknown key 'points'\n",
                 id="data15-error: rr data has an unknown key 'points'\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "half_points": 0},
                 "error: rr data has an unknown key 'half_points'\n",
                 id="data16-error: rr data has an unknown key 'half_points'\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5",
                  "points": [{"r": 3, "weights": [1, 1, 1]}, {"r": 3, "weight": [2, 2, 2]}]},
                 "error: points[1] has an unknown key 'weight'\n",
                 id="data17-error: points[1] has an unknown key 'weight'\n"),
    # points is a list, not a point or a string of them
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": {"r": 5}},
                 "error: points must be a JSON list, not dict\n",
                 id="data18-error: points must be a JSON list, not dict\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": "ab"},
                 "error: points must be a JSON list, not str\n",
                 id="data19-error: points must be a JSON list, not str\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": None},
                 "error: points must be a JSON list, not NoneType\n",
                 id="data20-error: points must be a JSON list, not NoneType\n"),
    # a negative count names its key and value
    pytest.param({"kind": "can3", "pg": 7, "K3": "21", "half_points": -2},
                 "error: half_points must be >= 0, got -2\n",
                 id="data21-error: half_points must be >= 0, got -2\n"),
    pytest.param({"kind": "can3", "pg": -7, "K3": "21"}, "error: pg must be >= 0, got -7\n",
                 id="data22-error: pg must be >= 0, got -7\n"),
    # a point's weights and c are lists, not strings read by character or numbers
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [{"r": 5, "weights": "334"}]},
                 "error: points[0]: weights must be a JSON list, not str\n",
                 id="data23-error: points[0]: weights must be a JSON list, not str\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [{"r": 5, "c": "01234"}]},
                 "error: points[0]: c must be a JSON list, not str\n",
                 id="data24-error: points[0]: c must be a JSON list, not str\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [{"r": 5, "weights": 5}]},
                 "error: points[0]: weights must be a JSON list, not int\n",
                 id="data25-error: points[0]: weights must be a JSON list, not int\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5",
                  "points": [{"r": 3, "weights": [1, 1, 1]}, {"r": 3, "c": None}]},
                 "error: points[1]: c must be a JSON list, not NoneType\n",
                 id="data26-error: points[1]: c must be a JSON list, not NoneType\n"),
    # a missing key names the point, and a value that is no number names its key
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [{"weights": [3, 3, 4]}]},
                 "error: points[0] lacks the key 'r'\n",
                 id="data27-error: points[0] lacks the key 'r'\n"),
    pytest.param({"kind": "cy3", "A3": [6], "Ac2": "108/5"},
                 "error: A3 must be a number, not [6]\n",
                 id="data28-error: A3 must be a number, not [6]\n"),
    pytest.param({"kind": "can3", "pg": 7, "K3": {"a": 1}},
                 "error: K3 must be a number, not {'a': 1}\n",
                 id="data29-error: K3 must be a number, not {'a': 1}\n"),
    pytest.param({"kind": "cy3", "A3": "6/5", "Ac2": "108/5", "points": [{"r": 5, "c": [[0], 0, 0, 0, 0]}]},
                 "error: points[0]: c must be a number, not [0]\n",
                 id="data30-error: points[0]: c must be a number, not [0]\n"),
    # K and A are ample: a cube that is not positive names its key and value
    pytest.param({"kind": "can3", "pg": 7, "K3": "0"}, "error: K3 must be positive, got 0\n",
                 id="data31-error: K3 must be positive, got 0\n"),
    pytest.param({"kind": "cy3", "A3": "-6/5", "Ac2": "108/5"},
                 "error: A3 must be positive, got -6/5\n",
                 id="data32-error: A3 must be positive, got -6/5\n"),
])
def test_match_malformed_rr_exits_2(tmp_path, capsys, data, named):
    rr = tmp_path / "rr.json"
    rr.write_text(json.dumps(data))
    code, out, err = run(capsys, "match", "--rr", str(rr))
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("decimal, exact", [(0.1, "1/10"), (21.0, "21"), (2.1e1, 21)])
def test_match_reads_json_decimals_exactly(tmp_path, capsys, decimal, exact):
    reports = []
    for k3 in (decimal, exact):
        rr = tmp_path / "rr.json"
        rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": k3, "half_points": 2}))
        code, out, err = run(capsys, "match", "--rr", str(rr), "--json")
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    pytest.param(("match", "--rr", "{rr}"), id="argv0"),
    pytest.param(("rr", "can3", "--pg", "7", "--k3", "1/0"), id="argv1"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "5:0,1/0"), id="argv2"),
])
def test_zero_denominator_exits_2_without_traceback(tmp_path, capsys, argv):
    rr = tmp_path / "rr.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "1/0"}))
    code, out, err = run(capsys, *(a.format(rr=rr) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_w2, max_u", [(0, 4), (-3, 4), (8, 0)])
def test_match_rejects_the_bounds_a_query_rejects(tmp_path, capsys, max_w2, max_u):
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21"}))
    code, out, err = run(capsys, "match", "--rr", str(rr),
                         "--max-w2", str(max_w2), "--max-u", str(max_u))
    assert code == 2 and out == ""
    name, value = ("--max-w2", max_w2) if max_w2 < 1 else ("--max-u", max_u)
    assert err == f"error: {name} must be >= 1, got {value}\n"
    with pytest.raises(ValueError, match="search bounds must be positive and finite"):
        matcher.MatchQuery(target=HilbertSeries(LaurentPoly.one()), max_w2=max_w2, max_u=max_u)


def test_internal_inconsistency_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # model banks breaking the matcher's top-term check (1 + ... - t^top): a
    # relation in degree 0 would cancel the 1
    monkeypatch.setattr(wgrass25.GrWeights, "banks_of", staticmethod(lambda w2: (sum(w2), ((0,),))))
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21",
                              "half_points": 2}))
    matcher._model_index.cache_clear()
    try:
        code, out, err = run(capsys, "match", "--rr", str(rr), "--family", "wgr25")
    finally:
        matcher._model_index.cache_clear()
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "numerator is not" in err
    assert "Traceback" not in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2",
                       "--degree", "3")
    assert code == 0
    assert "oracle dimension 175" in out and "agree" in out


def test_json_outputs_are_sorted_and_stable(capsys):
    code, out1, _ = run(capsys, "info", "wogr", "--w", "0,0,1,1,2", "--u", "1",
                        "--json")
    _, out2, _ = run(capsys, "info", "wogr", "--w", "0,0,1,1,2", "--u", "1",
                     "--json")
    assert code == 0 and out1 == out2
    data = json.loads(out1)
    assert data["schema"] == "wgk/1"


def test_rr_disagreement_is_an_internal_error(capsys, monkeypatch):
    honest = cli.plurigenus
    monkeypatch.setattr(cli, "plurigenus", lambda data, n: honest(data, n) + 1)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "rr", "can3", "--pg", "7", "--k3", "21", *extra)
        assert code == 3 and out == ""
        assert err == "internal error: closed form disagrees with the plurigenus formula\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_oracle_budget_refusal_exits_2(capsys, json_flag):
    code, out, err = run(capsys, "oracle", "wogr", "--w", "0,0,0,0,0", "--u", "1",
                         "--degree", "9", *json_flag)
    assert code == 2 and out == ""
    assert err == ("degree bound exceeded: degree 9 exceeds the oracle budget "
                   "(1307504 monomials)\n")


def test_a_degree_past_the_exponent_packing_is_refused_before_counting(capsys, monkeypatch):
    """Counting the monomials of degree d builds a list of d + 1 entries, so a
    degree whose exponents cannot be packed is refused without a count."""
    honest = oracle.count_monomials

    def bounded(weights, degree):
        assert degree // min(weights) <= oracle.FIELD_MASK, f"counted degree {degree}"
        return honest(weights, degree)

    monkeypatch.setattr(oracle, "count_monomials", bounded)
    for degree in (oracle.FIELD_MASK + 1, 10 ** 6, 10 ** 9):
        code, out, err = run(capsys, "oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2",
                             "--degree", str(degree))
        assert code == 2 and out == ""
        assert err == (f"degree bound exceeded: degree {degree} exceeds the oracle "
                       f"budget (an exponent above {oracle.FIELD_MASK})\n")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2", "--degree", "-1"),
                 "--degree must be >= 0, got -1", id="argv0---degree must be >= 0, got -1"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "abc"),
                 "--point 'abc' is not of the form r:c0,...,c(r-1)",
                 id="argv1---point 'abc' is not of the form r:c0,...,c(r-1)"),
    pytest.param(("section", "--model", "{model}", "--cut", "a,b"),
                 "--cut 'a,b' is not a list of integer degrees",
                 id="argv2---cut 'a,b' is not a list of integer degrees"),
    # a point of order below 2 is no quotient point, with or without values
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "0"),
                 "--point '0' has order 0; a quotient point needs r >= 2",
                 id="argv3---point '0' has order 0; a quotient point needs r >= 2"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point=-2"),
                 "--point '-2' has order -2; a quotient point needs r >= 2",
                 id="argv4---point '-2' has order -2; a quotient point needs r >= 2"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "1"),
                 "--point '1' has order 1; a quotient point needs r >= 2",
                 id="argv5---point '1' has order 1; a quotient point needs r >= 2"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "1:0"),
                 "--point '1:0' has order 1; a quotient point needs r >= 2",
                 id="argv6---point '1:0' has order 1; a quotient point needs r >= 2"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--point", "5:0,0,1"),
                 "--point '5:0,0,1': need exactly r = 5 values, got 3",
                 id="argv7---point '5:0,0,1': need exactly r = 5 values, got 3"),
    pytest.param(("rr", "can3", "--pg", "7", "--k3", "21", "--expand", "-1"),
                 "--expand must be >= 0, got -1", id="argv8---expand must be >= 0, got -1"),
    pytest.param(("rr", "cy3", "--a3", "1", "--ac2", "1", "--expand", "-2"),
                 "--expand must be >= 0, got -2", id="argv9---expand must be >= 0, got -2"),
    pytest.param(("section", "--model", "{model}", "--terms", "-1"),
                 "--terms must be >= 0, got -1", id="argv10---terms must be >= 0, got -1"),
    pytest.param(("rr", "can3", "--pg", "7", "--k3", "21", "--half", "-2"),
                 "--half must be >= 0, got -2", id="argv11---half must be >= 0, got -2"),
    pytest.param(("rr", "can3", "--pg", "-7", "--k3", "21"), "--pg must be >= 0, got -7",
                 id="argv12---pg must be >= 0, got -7"),
    pytest.param(("rr", "can3", "--pg", "0", "--k3", "0"), "--k3 must be positive, got 0",
                 id="argv13---k3 must be positive, got 0"),
    pytest.param(("rr", "cy3", "--a3=-6/5", "--ac2", "1"), "--a3 must be positive, got -6/5",
                 id="argv14---a3 must be positive, got -6/5"),
])
def test_argument_errors_name_the_argument(tmp_path, capsys, argv, message):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}))
    code, out, err = run(capsys, *(a.format(model=model) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"



REFUSAL_TESTS = (
    "test_a_roundtrip_kind_that_does_not_fit_the_section_exits_2",
    "test_match_refuses_a_point_by_name", "test_section_malformed_model_exits_2",
    "test_match_malformed_rr_exits_2", "test_zero_denominator_exits_2_without_traceback",
    "test_argument_errors_name_the_argument")


def test_each_refusal_case_states_its_own_id():
    # a positional id would rename every later case when one is inserted
    seen = []
    for node in ast.parse(Path(__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in REFUSAL_TESTS:
            (cases,) = [d.args[1].elts for d in node.decorator_list
                        if "parametrize" in ast.unparse(d)]
            ids = [k.value.value for case in cases if isinstance(case, ast.Call)
                   for k in case.keywords if k.arg == "id"]
            assert len(ids) == len(cases) == len(set(ids)), node.name
            seen.append(node.name)
    assert sorted(seen) == sorted(REFUSAL_TESTS)

LEAF_COMMANDS = {
    "info wgr": ("info", "wgr", "--w", "1/2,1/2,1/2,1/2,3/2"),
    "info wogr": ("info", "wogr", "--w", "0,0,1,1,2", "--u", "1"),
    "verify": ("verify",),
    "rr can3": ("rr", "can3", "--pg", "7", "--k3", "21", "--half", "2", "--expand", "8"),
    "rr cy3": ("rr", "cy3", "--a3", "6/5", "--ac2", "108/5",
               "--point", "5:0,0,-1/5,1/5,0", "--expand", "8"),
    "section": ("section", "--model", "{model}", "--cut", "2,2,2", "--invariants", "--basket"),
    "match": ("match", "--rr", "{rr}"),
    "oracle": ("oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2", "--degree", "2"),
}


@pytest.mark.parametrize("name", sorted(LEAF_COMMANDS))
def test_each_command_prints_one_json_object_or_text(tmp_path, capsys, name):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}))
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21", "half_points": 2}))
    argv = [a.format(model=model, rr=rr) for a in LEAF_COMMANDS[name]]

    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    record = json.loads(out)
    assert isinstance(record, dict) and record["schema"] == "wgk/1"

    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n") and out.strip()
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_refused_section_prints_nothing_on_stdout(tmp_path, capsys, json_flag):
    # a bad --terms is refused before anything is printed, so it leaves no
    # partial answer behind, with or without --json
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"family": "wgr25", "w2": [1, 1, 1, 1, 3], "u2": 0}))
    code, out, err = run(capsys, "section", "--model", str(model), "--cut", "2,2,2",
                         "--terms", "-1", *json_flag)
    assert code == 2 and out == ""
    assert err == "error: --terms must be >= 0, got -1\n"


# -- the console script's exit ------------------------------------------------------

# a relation in degree 0 breaks the matcher's top-term check, as in
# test_internal_inconsistency_exits_3_without_traceback
BREAK_GR_BANKS = ("from wgk import wgrass25\n"
                  "wgrass25.GrWeights.banks_of = staticmethod(lambda w2: (sum(w2), ((0,),)))\n")


def run_entry(argv, setup="", stdout=subprocess.PIPE, unbuffered=False):
    """``wgk ARGV`` through ``cli.entry`` in a fresh interpreter, after ``setup``:
    the process's stdout (None when ``stdout`` is a file descriptor) and stderr
    bytes and its exit code.  Its stdout is block-buffered, as when a user pipes
    it, so only the exit flushes it, unless ``unbuffered``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = (f"import sys\n{setup}sys.argv = ['wgk', *{list(argv)!r}]\n"
            "from wgk.cli import entry\nentry()\n")
    proc = subprocess.run([sys.executable, "-c", code], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=300, env={**env, "PYTHONPATH": path}, cwd=ROOT)
    return proc.stdout, proc.stderr, proc.returncode


@pytest.mark.parametrize("case", ["verify", "missing-rr", "internal-error"])
def test_the_console_script_prints_and_exits_as_main_returns(tmp_path, capsys, monkeypatch,
                                                              case):
    rr = tmp_path / "can3.json"
    rr.write_text(json.dumps({"kind": "can3", "pg": 7, "K3": "21", "half_points": 2}))
    argv, setup, want = {
        "verify": (["verify", "--full", "--json"], "", 0),
        "missing-rr": (["match", "--rr", str(tmp_path / "no-such.json")], "", 2),
        "internal-error": (["match", "--rr", str(rr), "--family", "wgr25"], BREAK_GR_BANKS, 3),
    }[case]
    out, err, code = run_entry(argv, setup)
    if setup:
        monkeypatch.setattr(wgrass25.GrWeights, "banks_of",
                            staticmethod(lambda w2: (sum(w2), ((0,),))))
    matcher._model_index.cache_clear()
    try:
        expected = run(capsys, *argv)
    finally:
        matcher._model_index.cache_clear()
    assert expected[0] == want
    assert (code, out, err) == (want, expected[1].encode(), expected[2].encode())
    if case == "verify":
        assert len(json.loads(out)["checks"]) == 104


def test_the_console_script_runs_atexit_handlers_on_a_frozen_heap():
    setup = ("import atexit, gc\n"
             "assert gc.get_freeze_count() == 0\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n")
    out, err, code = run_entry(["rr", "can3", "--pg", "7", "--k3", "21", "--half", "2"], setup)
    assert code == 0 and out.strip()
    assert err.startswith(b"frozen ") and int(err.split()[1]) > 0


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["verify", "--full", "--json"],
                                  ["rr", "can3", "--pg", "7", "--k3", "21", "--half", "2"],
                                  ["--help"], ["verify", "--help"]])
def test_a_closed_stdout_exits_141_without_traceback(argv, unbuffered):
    # as in `wgk verify --full --json | true`: the reader is gone before wgk
    # writes, so main's print (unbuffered) or the flush after it fails, and the
    # exit-time flush must not fail again.  argparse prints its help and raises
    # SystemExit(0) inside main: buffered, the help waits for entry's flush,
    # which fails; unbuffered, argparse ignores its own write error and exits 0
    read, write = os.pipe()
    os.close(read)
    try:
        out, err, code = run_entry(argv, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    want = 0 if unbuffered and argv[-1] == "--help" else 141
    assert (code, err) == (want, b"")


def test_main_leaves_the_heap_unfrozen(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "rr", "can3", "--pg", "7", "--k3", "21", "--half", "2")[0] == 0
    assert run(capsys, "match", "--rr", str(tmp_path / "no-such.json"))[0] == 2
    assert gc.get_freeze_count() == before
