import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from wondertoric import cli, polyring
from wondertoric.arrangement import name_layers, poset_of_layers
from wondertoric.presentation import presentation_from_arrangement


@pytest.fixture(scope="module")
def data_dir():
    return resources.files("wondertoric") / "data"


def fixture_path(data_dir, name):
    return str(data_dir / name)


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_bundled_fixtures(data_dir):
    warnings = []
    arr = cli.parse_arrangement(fixture_path(data_dir, "running.arr.json"), warnings)
    fan = cli.parse_fan(fixture_path(data_dir, "running.fan.json"), warnings)
    assert len(arr.subtori) == 3
    assert fan.nrays == 14
    assert not warnings


def test_phase_fraction_rules():
    assert cli._parse_phase("1/2") == 0.5
    with pytest.raises(cli.InputError):
        cli._parse_phase("0.5")


def test_zero_denominator_phase_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"ambient_rank": 1, "subtori": [
        {"label": "P", "chars": [[1]], "phase": ["1/0"]}]}))
    code, _, err = run_cli(capsys, ["poset", "--arrangement", str(path)])
    assert code == 2
    assert "input error: phase '1/0' has a zero denominator" in err


def test_repeated_ray_index_in_a_cone_is_an_input_error(tmp_path, capsys, data_dir):
    # once read as the one-ray cone {0}: Betti [1, 0, 0], verified, exit 0
    fan = json.loads((data_dir / "a22.fan.json").read_text())
    fan["max_cones"] = [[0, 0]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    code, _, err = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", str(path)])
    assert code == 2
    assert "input error: maximal cone [0, 0] repeats a ray index" in err


def test_fan_with_a_cone_removed_is_an_input_error(tmp_path, capsys, data_dir):
    # once reported ranks [1, 6, 0] with "groebner verified: True", exit 0
    fan = json.loads((data_dir / "a22.fan.json").read_text())
    fan["max_cones"] = fan["max_cones"][1:]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    code, out, err = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", str(path)])
    assert (code, out) == (2, "")
    assert "input error: facet [4] should lie in 2 maximal cones, but lies in 1" in err
    arr = cli.parse_arrangement(fixture_path(data_dir, "a22.arr.json"), [])
    with pytest.raises(ValueError, match=r"facet \[4\] should lie in 2"):
        presentation_from_arrangement(arr, cli.parse_fan(str(path), []))


def test_fan_that_winds_twice_is_an_input_error(tmp_path, capsys):
    # smooth, and each facet lies between two cones, but the plane is
    # covered twice; once it failed deep in the alpha pair sweep, exit 1
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps({"ambient_rank": 2, "subtori": [
        {"label": "H", "chars": [[1, 0]], "phase": ["0"]}]}))
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({
        "ambient_rank": 2,
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [2, 1], [1, 1], [-2, -1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]]}))
    code, out, err = run_cli(capsys, [
        "model-betti", "--arrangement", str(arr), "--fan", str(fan)])
    assert (code, out) == (2, "")
    assert ("input error: the point [1, 2] lies in 2 maximal cones [[0, 1], [5, 6]]: "
            "the fan is not complete") in err


def test_fan_with_a_cone_that_is_not_smooth_is_an_input_error(tmp_path, capsys, data_dir):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({
        "ambient_rank": 2, "rays": [[1, 0], [1, 2], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}))
    code, out, err = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", str(fan)])
    assert (code, out) == (2, "")
    assert "input error: maximal cone [0, 1] is not smooth" in err


def test_missing_max_cones(tmp_path, capsys, data_dir):
    bad = tmp_path / "fan.json"
    bad.write_text(json.dumps({"ambient_rank": 2, "rays": [[1, 0]]}))
    code, _, err = run_cli(capsys, [
        "toric-betti",
        "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", str(bad)])
    assert code == 2
    assert "max_cones" in err


def test_nonprimitive_ray_warns(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "ambient_rank": 1, "rays": [[2], [-1]],
        "max_cones": [[0], [1]]}))
    warnings = []
    fan = cli.parse_fan(str(path), warnings)
    assert fan.rays[0] == (1,)
    assert warnings and "primitive" in warnings[0]


@pytest.mark.parametrize("file, keys, value, field", [
    ("arr", ("subtori", 0, "chars"), [[1.5, 0]], "a character of subtorus 'H1'"),
    ("arr", ("subtori", 0, "chars"), [[1, "a"]], "a character of subtorus 'H1'"),
    ("arr", ("subtori", 0, "chars"), [[True, 0]], "a character of subtorus 'H1'"),
    ("arr", ("ambient_rank",), "x", "ambient_rank"),
    ("fan", ("ambient_rank",), 2.0, "ambient_rank"),
    ("fan", ("rays", 0), [0, 1.0], "ray [0, 1.0]"),
    ("fan", ("max_cones", 0), [0, 1.9], "max_cones entry [0, 1.9]"),
], ids=["float-char", "string-char", "bool-char", "string-arr-rank",
        "float-fan-rank", "float-ray", "float-cone-index"])
def test_non_integer_input_is_an_input_error(tmp_path, capsys, data_dir, file, keys,
                                             value, field):
    """A number that is not a JSON integer is named and exits 2, never
    truncated and never a traceback."""
    paths = {}
    for kind in ("arr", "fan"):
        data = json.loads((data_dir / f"a22.{kind}.json").read_text())
        if kind == file:
            target = data
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        paths[kind] = tmp_path / f"a22.{kind}.json"
        paths[kind].write_text(json.dumps(data))
    code, _, err = run_cli(capsys, [
        "toric-betti", "--arrangement", str(paths["arr"]), "--fan", str(paths["fan"])])
    assert code == 2
    assert f"input error: {field} must be an integer, not " in err


@pytest.mark.parametrize("file, keys, value, message", [
    ("arr", (), 5, "must hold a JSON object, not 5"),
    ("arr", ("subtori",), 5, "subtori must be a list, not 5"),
    ("arr", ("subtori", 0), 5, "subtorus #0 must be an object, not 5"),
    ("arr", ("subtori", 0, "chars"), 5, "chars of subtorus 'H1' must be a list, not 5"),
    ("arr", ("subtori", 0, "chars", 0), 5,
     "character row #0 of subtorus 'H1' must be a list, not 5"),
    ("arr", ("subtori", 0, "phase"), 5, "phase of subtorus 'H1' must be a list, not 5"),
    ("fan", ("rays",), 5, "rays must be a list, not 5"),
    ("fan", ("rays", 0), 5, "ray #0 must be a list, not 5"),
    ("fan", ("max_cones",), 5, "max_cones must be a list, not 5"),
    ("fan", ("max_cones", 0), 5, "max_cones entry #0 must be a list, not 5"),
], ids=["document", "subtori", "subtorus", "chars", "char-row", "phase", "rays",
        "ray", "max-cones", "cone"])
def test_container_shape_is_an_input_error(tmp_path, capsys, data_dir, file, keys,
                                           value, message):
    """A number where a list or an object belongs is named and exits 2."""
    paths = {}
    for kind in ("arr", "fan"):
        data = json.loads((data_dir / f"a22.{kind}.json").read_text())
        if kind == file and not keys:
            data = value
        elif kind == file:
            target = data
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        paths[kind] = tmp_path / f"a22.{kind}.json"
        paths[kind].write_text(json.dumps(data))
    code, _, err = run_cli(capsys, [
        "toric-betti", "--arrangement", str(paths["arr"]), "--fan", str(paths["fan"])])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("labels", [5, [["L1"]]], ids=["number", "nested-label"])
def test_building_labels_shape_is_an_input_error(tmp_path, capsys, data_dir, labels):
    path = tmp_path / "building.json"
    path.write_text(json.dumps({"labels": labels}))
    code, _, err = run_cli(capsys, [
        "building", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--building", str(path)])
    assert code == 2
    assert "input error" in err


def test_rank_mismatch(tmp_path, capsys, data_dir):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "ambient_rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}))
    code, _, err = run_cli(capsys, [
        "toric-betti", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--fan", str(path)])
    assert code == 2
    assert "ambient rank mismatch: arrangement has 3, fan has 1" in err


def test_building_min_running(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "building", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--building", "min", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 6
    assert report["is_geometric"]


def test_building_minwc_running(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "building", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--building", "minwc", "--deterministic"])
    assert json.loads(out)["count"] == 9 and code == 0


def test_poset_running(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "poset", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert len(report["layers"]) == 10
    assert len(report["covers"]) == 15


def test_blowup_running(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "blowup", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--building", "min", "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert len(report["elements"]) == 22
    assert report["locally_boolean"]


def test_explicit_building_file(tmp_path, capsys, data_dir):
    sel = tmp_path / "building.json"
    sel.write_text(json.dumps({"labels": ["H1", "H2"]}))
    code, out, _ = run_cli(capsys, [
        "building", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--building", str(sel), "--deterministic"])
    assert code == 0
    assert json.loads(out)["members"] == ["H1", "H2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": ["H1"]}))
    code, _, err = run_cli(capsys, [
        "building", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--building", str(bad)])
    assert code == 2 and "building" in err


def test_subtorus_listed_twice_keeps_its_first_label(tmp_path, capsys, data_dir):
    data = json.loads((data_dir / "a22.arr.json").read_text())
    first = data["subtori"][0]
    data["subtori"].append(dict(first, label="again"))
    path = tmp_path / "twice.arr.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, ["poset", "--arrangement", str(path),
                                    "--deterministic"])
    names = [layer["name"] for layer in json.loads(out)["layers"]]
    assert code == 0
    assert first["label"] in names and "again" not in names
    arr = cli.parse_arrangement(str(path), [])
    poset = poset_of_layers(arr)
    assert name_layers(arr, poset)[arr.subtori[0]] == first["label"]
    fan = cli.parse_fan(fixture_path(data_dir, "a22.fan.json"), [])
    pres = presentation_from_arrangement(arr, fan)
    assert pres.layer_name(arr.subtori[0]) == first["label"]
    sel = tmp_path / "building.json"
    sel.write_text(json.dumps({"labels": ["again"]}))
    code, _, err = run_cli(capsys, ["building", "--arrangement", str(path),
                                    "--building", str(sel)])
    assert code == 2 and "'again'" in err


@pytest.mark.parametrize("labels, message", [
    # once the first of two subtori labelled H1 became W1.1 and the label
    # named the second
    (["H1", "H1"], "subtorus label 'H1' is repeated"),
    # once the poset report listed two layers called 1
    (["1", "H2"], "subtorus label '1' is the name of the torus"),
], ids=["repeated", "torus"])
def test_clashing_subtorus_label_is_an_input_error(tmp_path, capsys, data_dir,
                                                   labels, message):
    data = json.loads((data_dir / "a22.arr.json").read_text())
    for subtorus, label in zip(data["subtori"], labels):
        subtorus["label"] = label
    path = tmp_path / "clash.arr.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["poset", "--arrangement", str(path)])
    assert code == 2
    assert f"input error: {message}" in err


def test_generated_layer_names_skip_a_taken_label(tmp_path, capsys, data_dir):
    # H1 relabelled W2.1: the two points get W2.2 and W2.3, not a second W2.1
    data = json.loads((data_dir / "a22.arr.json").read_text())
    data["subtori"][0]["label"] = "W2.1"
    path = tmp_path / "taken.arr.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, ["poset", "--arrangement", str(path),
                                    "--deterministic"])
    assert code == 0
    layers = json.loads(out)["layers"]
    names = [layer["name"] for layer in layers]
    assert len(names) == len(set(names))
    assert sorted(names) == ["1", "H2", "W2.1", "W2.2", "W2.3"]
    sel = tmp_path / "building.json"
    sel.write_text(json.dumps({"labels": ["W2.1", "H2"]}))
    code, out, _ = run_cli(capsys, ["building", "--arrangement", str(path),
                                    "--building", str(sel), "--deterministic"])
    assert code == 0
    assert sorted(json.loads(out)["members"]) == ["H2", "W2.1"]


def test_model_betti_a22(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"),
        "--building", "max", "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert report["betti"] == [1, 8, 1]
    assert report["torsion"] == []
    assert report["groebner_verified"]


def test_toric_betti_a22(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "toric-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"), "--deterministic"])
    report = json.loads(out)
    assert code == 0 and report["betti"] == [1, 6, 1]


def test_verify_a22(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "verify", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"),
        "--building", "max", "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert report["groebner_verified"]
    assert report["order_invariance"]["isomorphic"]
    assert report["restriction_map"]["failures"] == []
    rec = report["recursions"]["AM"]
    if rec["codim"] == 1:
        assert rec["correction_is_zero"]
    assert rec["equal"] and report["recursions"]["B"]["equal"]


def test_admissible_a22(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "admissible", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"),
        "--building", "max", "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert report["b_generating_function"] == [1, 8, 1]


def test_deterministic_reports_are_identical(capsys, data_dir):
    argv = ["building", "--arrangement", fixture_path(data_dir, "running.arr.json"),
            "--deterministic"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_table_format(capsys, data_dir):
    code, out, _ = run_cli(capsys, [
        "toric-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"),
        "--deterministic", "--format", "table"])
    assert code == 0
    assert "H^0" in out and "H^2" in out


def test_out_file(tmp_path, capsys, data_dir):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "poset", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--deterministic", "--out", str(target)])
    assert code == 0 and not out
    assert json.loads(target.read_text())["command"] == "poset"


def test_model_betti_running(capsys, data_dir):
    # full pipeline through the CLI on the bundled fixtures
    code, out, _ = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--fan", fixture_path(data_dir, "running.fan.json"),
        "--building", "min", "--deterministic"])
    report = json.loads(out)
    assert code == 0
    assert report["betti"] == [1, 15, 15, 1]
    assert report["torsion"] == []
    assert report["relation_counts"] == {"i": 278, "ii": 24, "iii": 168}


def test_phase_outside_unit_interval_warns(tmp_path, data_dir):
    path = tmp_path / "arr.json"
    for phase, warns in (("3/2", True), ("1/2", False)):
        path.write_text(json.dumps({"ambient_rank": 1, "subtori": [
            {"label": "P", "chars": [[1]], "phase": [phase]}]}))
        warnings = []
        cli.parse_arrangement(str(path), warnings)
        assert warnings == (["phases of 'P' reduced modulo 1"] if warns else [])
    warnings = []
    cli.parse_arrangement(fixture_path(data_dir, "a22.arr.json"), warnings)
    cli.parse_fan(fixture_path(data_dir, "a22.fan.json"), warnings)
    assert not warnings


def test_failed_alpha_names_the_witness(tmp_path, capsys, data_dir):
    # the character of H2 changes sign on cones of the P1 x P1 fan, so the
    # fan is not equal-sign for the arrangement and alpha is no Groebner basis
    fan = tmp_path / "p1p1.fan.json"
    fan.write_text(json.dumps({
        "ambient_rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    witness = "S-pair of t{H2}*c1 and t{H2}-2*c4-c3 reduces to 2*c2*c1"
    args = ["--arrangement", fixture_path(data_dir, "a22.arr.json"),
            "--fan", str(fan), "--deterministic"]
    code, out, _ = run_cli(capsys, ["verify", *args, "--format", "table"])
    assert code == 1
    assert "groebner_verified: False" in out.splitlines()
    assert f"groebner_witness: {witness}" in out.splitlines()
    code, out, _ = run_cli(capsys, ["verify", *args])
    report = json.loads(out)
    assert code == 1
    assert report["groebner_verified"] is False
    assert report["groebner_witness"] == witness
    code, _, err = run_cli(capsys, ["model-betti", *args])
    assert code == 1
    assert f"alpha failed the Groebner pair test: {witness}" in err


def test_low_cap_names_the_monomials_that_do_not_vanish(capsys, data_dir):
    # with the cap below dim + 1 = 4 the escalier keeps degree-4 monomials
    code, _, err = run_cli(capsys, [
        "model-betti",
        "--arrangement", fixture_path(data_dir, "running.arr.json"),
        "--fan", fixture_path(data_dir, "running.fan.json"), "--cap", "2"])
    assert code == 1
    assert "dimension 3 (the degree cap 2 is below dim + 1," in err
    assert err.rstrip().endswith("so alpha is verified only up to degree 2): "
                                 "c7*c1^3, c1^4")


@pytest.mark.parametrize("cap, code", [("-1", 2), ("0", 1)])
def test_negative_cap_is_an_input_error(capsys, data_dir, cap, code):
    # a cap of 0 is still a cap below the dimension: a verification failure
    got, out, err = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"), "--cap", cap])
    assert (got, out) == (code, "")
    assert (err == "input error: --cap must be nonnegative, got -1\n"
            if code == 2 else err.startswith("verification failure: "))


def test_cap_far_above_the_dimension_gives_the_ranks(capsys, data_dir):
    # the rank test of alpha stops where the escalier ends, not at the cap:
    # a walk over every degree up to 40000 overflows an exponent field
    code, out, _ = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json"), "--cap", "40000",
        "--deterministic"])
    assert code == 0
    assert json.loads(out)["betti"] == [1, 6, 1]


def test_rank_test_failing_where_the_sweep_passes_exits_1(monkeypatch, capsys,
                                                         data_dir):
    # only the certificate's oracle is wrong: one rank too many in degree 1
    oracle = polyring.graded_rank_oracle
    monkeypatch.setattr(polyring, "graded_rank_oracle", lambda t, gens, d: (
        oracle(t, gens, d)[0] + (d == 1), ()))
    code, out, err = run_cli(capsys, [
        "model-betti", "--arrangement", fixture_path(data_dir, "a22.arr.json"),
        "--fan", fixture_path(data_dir, "a22.fan.json")])
    assert code == 1 and not out
    got = re.fullmatch(r"verification failure: the rank test fails at degree 1 "
                       r"\((\d+) standard monomials, free rank (\d+)\) but no "
                       r"pair does\n", err)
    assert got and int(got[2]) == int(got[1]) + 1


@pytest.mark.parametrize("fixture, command, dim", [
    ("running", "admissible", 3), ("running", "verify", 3), ("a22", "admissible", 2)])
def test_cap_at_or_below_the_dimension_fails_and_does_not_hang(data_dir, fixture,
                                                                command, dim):
    # a restricted basis truncated at the cap keeps a standard monomial in
    # every degree, so the additive basis must stop at the torus dimension
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "wondertoric.cli", command,
         "--arrangement", fixture_path(data_dir, f"{fixture}.arr.json"),
         "--fan", fixture_path(data_dir, f"{fixture}.fan.json"), "--cap", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(
        f"verification failure: escalier of layer 1 does not vanish above its "
        f"torus dimension {dim} (the degree cap 2 is below {dim} + 1,")


# Reports pinned before monomials were packed into ints (the blowup reports
# before the blowup poset was ordered by its facets): every byte of the
# --deterministic JSON, escalier and admissible basis order included, must
# stay as it was.  Each file is named <fixture>-<selector>-<command>.json.
GOLDEN = sorted(Path(__file__).with_name("data").glob("*.json"))


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_report_matches_golden(golden, capsys, data_dir):
    fixture, selector, command = golden.stem.split("-", 2)
    code, out, _ = run_cli(capsys, [
        command, "--arrangement", fixture_path(data_dir, f"{fixture}.arr.json"),
        "--fan", fixture_path(data_dir, f"{fixture}.fan.json"),
        "--building", selector, "--deterministic"])
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_golden_reports_cover_both_fixtures():
    assert {p.stem for p in GOLDEN} == {
        f"{fixture}-{selector}-{command}"
        for fixture, selectors in (("running", ("min", "minwc", "max")),
                                   ("a22", ("min", "max")))
        for selector in selectors
        for command in ("model-betti", "admissible", "verify", "blowup")}


def test_relabelled_a22_fan_gives_the_bundled_ranks(tmp_path, capsys, data_dir):
    # this order gives the toric basis the non-unit lead 2*c2*c1+c1^2; it
    # once exited 1 on all four commands.  New ray k is old ray perm[k]
    perm = (4, 3, 5, 7, 2, 6, 0, 1)
    fan = json.loads((data_dir / "a22.fan.json").read_text())
    new_of = {old: new for new, old in enumerate(perm)}
    fan["rays"] = [fan["rays"][i] for i in perm]
    fan["max_cones"] = [[new_of[i] for i in cone] for cone in fan["max_cones"]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    args = ["--arrangement", fixture_path(data_dir, "a22.arr.json"),
            "--fan", str(path), "--deterministic"]
    reports = {}
    for command in ("toric-betti", "model-betti", "admissible", "verify"):
        code, out, err = run_cli(capsys, [command, *args])
        assert code == 0, (command, err)
        reports[command] = json.loads(out)
    assert reports["model-betti"]["betti"] == [1, 6, 1]
    recursions = reports["verify"]["recursions"]
    assert recursions["AM"]["equal"] and recursions["B"]["equal"]
