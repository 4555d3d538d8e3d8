import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blochlab import approximation, cli, serialize
from blochlab.blochnorm import IntegralTestResult, WeightSpec, bloch_norm, weight_integral_test
from blochlab.cli import main
from blochlab.expressions import Polynomial1D, PolynomialND
from blochlab.inner import InnerSpec, QuadratureError, SingularMeasureSpec, TransportReport
from blochlab.numerics import MeasureEstimate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def _run(tmp_path, command, cfg, seed=5, name="cfg"):
    """Run ``command`` on ``cfg``; ``seed=None`` leaves the seed to the config."""
    cfg_path = os.path.join(tmp_path, f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    status = main([command, "--config", cfg_path, "--out", str(tmp_path),
                   *([] if seed is None else ["--seed", str(seed)])])
    report = os.path.join(tmp_path, f"{command.replace('-', '_')}_report.json")
    doc = serialize.load(report) if os.path.exists(report) else None
    return status, doc, report


def _verify(tmp_path, report, name="v"):
    """Exit status of ``verify`` on ``report`` and the names of its failed checks."""
    status, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name=name)
    return status, [c["check"] for c in vdoc["checks"] if not c["passed"]]


def _set(doc, dotted, value):
    """Set the value at a dotted key such as ``certificates[0].d_sup``."""
    *path, last = re.findall(r"[^.\[\]]+", dotted)
    for part in path:
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    doc[int(last) if isinstance(doc, list) else last] = value


def _strip_timestamp(text):
    return re.sub(r'"timestamp":[0-9.e+-]+', '"timestamp":0', text)


def test_bloch_norm_z_squared(tmp_path):
    status, doc, _ = _run(tmp_path, "bloch-norm",
                          {"function": {"kind": "monomial", "n": 2}})
    assert status == 0
    norm = doc["report"]["value_at_zero"] + doc["report"]["seminorm_sup"]
    assert norm == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-3)
    assert doc["schema_version"] == 1
    assert doc["seed"] == 5


def test_weight_test_verdict(tmp_path):
    status, doc, _ = _run(tmp_path, "weight-test",
                          {"weight": {"kind": "log-power", "parameter": 0.5},
                           "x": 0.5})
    assert status == 0
    assert doc["report"]["verdict"] == "diverges"


@pytest.mark.parametrize("command, extra", [
    ("weight-test", {"x": 0.5}), ("weighted", {"function": {"kind": "monomial", "n": 2}}),
], ids=["weight-test", "weighted"])
def test_a_custom_weight_table_takes_more_than_two_points(tmp_path, command, extra):
    # a table is a row of t values, then a row of omega values
    table = [[0.0, 0.25, 1.0], [0.0, 0.5, 1.0]]
    status, doc, _ = _run(tmp_path, command,
                          {"weight": {"kind": "custom-table", "table": table}, **extra})
    assert status == 0
    w = WeightSpec("custom-table", table=tuple(map(tuple, table)))
    want = (weight_integral_test(w, 0.5) if command == "weight-test"
            else bloch_norm(PolynomialND.from_terms({(2,): 1.0}, 1), weight=w))
    assert doc["report"] == json.loads(json.dumps(want.to_dict()))


@pytest.mark.parametrize("function, domain", [
    ({"kind": "coeffs", "coeffs": [0.3, 1.0, [0.0, 0.5]]}, "disc"),
    ({"kind": "polynd", "dim": 2, "terms": [[[1, 1], [1.0, 0.0]], [[0, 2], [0.0, -0.5]]]}, "polydisc"),
], ids=["disc", "polydisc"])
def test_a_weighted_report_is_the_weighted_bloch_norm(tmp_path, function, domain):
    # one variable takes the disc norm, two the polydisc norm, both weighted
    status, doc, _ = _run(tmp_path, "weighted",
                          {"function": function, "weight": {"kind": "power", "parameter": 0.5}})
    assert status == 0
    f, _ = cli._function_from_config(function)
    want = bloch_norm(f, domain, weight=WeightSpec("power", 0.5))
    assert doc["report"]["domain"] == domain
    assert doc["report"] == json.loads(json.dumps(want.to_dict()))


@pytest.mark.parametrize("seed, argv, err", [
    (-1, [], "seed: seed must be >= 0, got -1"),
    (7.5, [], "seed: expected a whole number, got 7.5"),
    (7, ["--seed", "-3"], "seed: seed must be >= 0, got -3"),
], ids=["negative", "fraction", "negative-flag"])
@pytest.mark.parametrize("command, cfg", [
    ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]}, "samples": 200}),
    ("transport", {"inner": {"kind": "atomic", "atoms": [[0.0, 1.0]]}, "arcs": [[0.5, 2.0]],
                   "samples": 200}),
], ids=["inner-quotient", "transport"])
def test_a_seed_that_is_no_whole_number_of_at_least_0_is_a_config_error(
        tmp_path, capsys, command, cfg, seed, argv, err):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "seed": seed}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path), *argv]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {err}"
    assert not (tmp_path / f"{command.replace('-', '_')}_report.json").exists()


def test_inner_quotient_schwarz_pick(tmp_path):
    status, doc, _ = _run(tmp_path, "inner-quotient",
                          {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]},
                           "samples": 20000})
    assert status == 0
    assert doc["schwarz_pick_ok"]


_SATURATED = {"kind": "atomic", "atoms": [[0.0, 1e-20]]}  # 1 - |I|^2 below the floor everywhere


def test_inner_quotient_with_every_sample_saturated_reports_nothing_measured(tmp_path):
    status, doc, _ = _run(tmp_path, "inner-quotient", {"inner": _SATURATED, "samples": 50})
    assert status == 1
    assert (doc["samples"], doc["max_quotient"], doc["mean_quotient"]) == (0, None, None)
    assert doc["schwarz_pick_ok"] is False


def test_shrink_of_a_saturated_base_is_a_shrink_failure(tmp_path):
    status, doc, _ = _run(tmp_path, "shrink", {"inner": _SATURATED, "eta": 0.5})
    assert status == 1
    assert doc["stage"] == "shrink"
    assert "boundary-saturated at every reference point" in doc["error"]


def test_transport_report(tmp_path):
    status, doc, _ = _run(tmp_path, "transport",
                          {"inner": {"kind": "atomic", "atoms": [[0.0, 1.0]]},
                           "arcs": [[0.5, 2.0]], "samples": 100000})
    assert status == 0
    assert doc["deviation"] < 0.02


def test_simul_zero_target_all_zero_certificate(tmp_path):
    status, doc, _ = _run(tmp_path, "simul",
                          {"target": {"kind": "constant", "value": 0.0},
                           "eps": 0.5})
    assert status == 0
    assert doc["report"]["norm"] == 0.0
    assert doc["report"]["sup_error"] == 0.0


def test_universal_two_targets_and_verify(tmp_path):
    cfg = {"targets": [{"kind": "constant", "value": 0.0},
                       {"kind": "constant", "value": 1.0}],
           "eps_schedule": [0.3, 0.2], "anchors": [[0.0, 0.0]], "n_max": 20}
    status, doc, report = _run(tmp_path, "universal", cfg)
    assert status == 0
    assert doc["verified_count"] == 2
    assert doc["failed_count"] == 0
    assert os.path.exists(os.path.join(tmp_path, "certificates.csv"))
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0
    assert vdoc["passed"]


def test_certify_and_verify_tamper_detection(tmp_path):
    cfg = {"function": {"kind": "coeffs", "coeffs": [1.0]},
           "target": {"kind": "constant", "value": 1.0},
           "n": 2, "anchors": [[0.0, 0.0]]}
    status, doc, report = _run(tmp_path, "certify", cfg)
    assert status == 0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    # verify re-runs the stored config: a stored value raised by 0.1 fails
    # exactly its own key
    for key in ("d_sup", "good_measure"):
        tampered = json.loads(json.dumps(doc))
        tampered[key] += 0.1
        serialize.save(report, tampered)
        assert _verify(tmp_path, report, name=f"v-{key}") == (1, [key])
    # an artifact without its config cannot be re-run
    del doc["config"]
    serialize.save(report, doc)
    status4, vdoc4, _ = _run(tmp_path, "verify", {"artifact": report}, name="v-config")
    assert status4 == 1
    assert [c["check"] for c in vdoc4["checks"]] == ["config"]


def test_verify_certify_uses_the_stored_tol(tmp_path):
    # |f - target| = 0.3 everywhere: inside tol 0.5, outside the default 0.25
    cfg = {"function": {"kind": "coeffs", "coeffs": [0.7]},
           "target": {"kind": "constant", "value": 1.0},
           "n": 2, "anchors": [[0.0, 0.0]], "tol": 0.5}
    status, doc, report = _run(tmp_path, "certify", cfg)
    assert status == 0
    assert doc["config"]["tol"] == 0.5 and doc["good_measure"] == 1.0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0 and vdoc["passed"]


def test_verify_simul_detects_tampered_measure(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "simul_zero.json")
    with open(config) as fh:
        cfg = json.load(fh)
    status, doc, report = _run(tmp_path, "simul", cfg)
    assert status == 0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    doc["report"]["measure"] -= 0.01
    serialize.save(report, doc)
    status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name="v2")
    assert status3 == 1
    assert not vdoc3["passed"]
    assert [c["check"] for c in vdoc3["checks"] if not c["passed"]] == ["report.measure"]


def test_verify_polydisc_simul_detects_tampered_measure(tmp_path):
    cfg = {"target": {"kind": "product_re"}, "eps": 0.5, "dim": 2}
    status, doc, report = _run(tmp_path, "simul", cfg)
    assert status == 0
    assert len(doc["E"]) == 2
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    for key in ("measure", "norm", "sup_error"):
        tampered = json.loads(json.dumps(doc))
        tampered["report"][key] -= 0.01
        serialize.save(report, tampered)
        status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name=f"v-{key}")
        assert status3 == 1, key
        assert [c["check"] for c in vdoc3["checks"] if not c["passed"]] == [f"report.{key}"]


def test_verify_polydisc_bloch_norm_artifact(tmp_path):
    poly = {"kind": "polynd", "dim": 2, "terms": [[[1, 8], [1.0, 0.0]]]}
    cfg = {"function": {"kind": "expr", "node": "polynd", "dim": 2, "poly": poly},
           "domain": "polydisc"}
    status, doc, report = _run(tmp_path, "bloch-norm", cfg)
    assert status == 0
    assert doc["report"]["seminorm_sup"] == pytest.approx(1.0, abs=0.01)
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0 and vdoc["passed"]


def test_bloch_norm_config_takes_a_bare_polynd(tmp_path):
    poly = {"kind": "polynd", "dim": 2, "terms": [[[1, 8], [1.0, 0.0]]]}
    status, doc, report = _run(tmp_path, "bloch-norm",
                               {"function": poly, "domain": "polydisc"})
    assert status == 0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0 and vdoc["passed"]
    wrapped = {"kind": "expr", "node": "polynd", "dim": 2, "poly": poly}
    _, doc2, _ = _run(tmp_path, "bloch-norm", {"function": wrapped, "domain": "polydisc"},
                      name="wrapped")
    assert doc2["report"] == doc["report"]
    assert doc2["function"] == doc["function"] == poly


def test_bloch_norm_of_an_empty_coefficient_list_is_that_of_zero(tmp_path):
    status, doc, report = _run(tmp_path, "bloch-norm",
                               {"function": {"kind": "coeffs", "coeffs": []}})
    assert status == 0
    assert doc["function"] == {"kind": "poly1d", "coeffs": [[0.0, 0.0]]}
    assert doc["report"]["norm"] == 0.0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0 and vdoc["passed"]


_ATOM = {"kind": "measure", "measure_kind": "atomic", "atoms": [[[1.0, 0.0], 0.5]]}
_COMPOSED = {"kind": "inner", "inner_kind": "composition",
             "chain": [{"kind": "inner", "inner_kind": "singular", "measure": _ATOM},
                       {"kind": "inner", "inner_kind": "blaschke", "zeros": [[0.3, 0.1]]}]}
_POLY_1VAR = {"kind": "polynd", "dim": 1, "terms": [[[0], [0.2, 0.0]], [[1], [0.5, 0.0]],
                                                    [[3], [1.0, 0.0]]]}


@pytest.mark.parametrize("command, extra", [
    ("bloch-norm", {}),
    ("certify", {"target": {"kind": "constant", "value": 0.0}, "n": 3,
                 "anchors": [[0.0, 0.0], [0.2, 0.1]]}),
], ids=["bloch-norm", "certify"])
@pytest.mark.parametrize("leaf, key", [(_COMPOSED, "inner"), (_POLY_1VAR, "poly")],
                         ids=["inner", "polynd"])
def test_an_expr_envelope_is_read_and_the_bare_leaf_written(tmp_path, command, extra, leaf, key):
    wrapped = {"kind": "expr", "node": leaf["kind"], "dim": 1, key: leaf}
    (tmp_path / "bare").mkdir()
    (tmp_path / "wrapped").mkdir()
    status, bare, _ = _run(tmp_path / "bare", command, {"function": leaf, **extra})
    status2, doc, _ = _run(tmp_path / "wrapped", command, {"function": wrapped, **extra})
    assert status == status2 == 0
    assert bare["function"] == doc["function"] == leaf
    numbers = "report" if command == "bloch-norm" else "d_sup"
    assert doc[numbers] == bare[numbers]
    if command == "certify":
        assert doc["good_measure"] == bare["good_measure"]


def test_certify_takes_a_one_variable_polynd(tmp_path):
    # f = 0.2 + 0.5 z + z^3 against f(0): each of the 1024 circle points is one point of f
    status, doc, report = _run(tmp_path, "certify", {
        "function": _POLY_1VAR, "target": {"kind": "constant", "value": 0.2}, "n": 3})
    assert status == 0
    assert 0.0 < doc["d_sup"] < 1.0
    assert _verify(tmp_path, report) == (0, [])


def test_verify_bloch_norm_detects_tampered_seminorm(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "bloch_norm_z2.json")
    with open(config) as fh:
        cfg = json.load(fh)
    status, doc, report = _run(tmp_path, "bloch-norm", cfg)
    assert status == 0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    # the re-run reproduces every key: the only check is its exit status
    assert vdoc["checks"] == [{"check": "status", "passed": True, "recomputed": 0}]
    doc["report"]["seminorm_sup"] += 0.01
    serialize.save(report, doc)
    status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name="v2")
    assert status3 == 1
    assert not vdoc3["passed"]
    assert [c["check"] for c in vdoc3["checks"] if not c["passed"]] == ["report.seminorm_sup"]


def test_determinism_same_seed_byte_identical(tmp_path):
    cfg = {"function": {"kind": "monomial", "n": 3}}
    _, _, report = _run(tmp_path, "bloch-norm", cfg, seed=11)
    with open(report) as fh:
        first = _strip_timestamp(fh.read())
    _, _, report = _run(tmp_path, "bloch-norm", cfg, seed=11)
    with open(report) as fh:
        second = _strip_timestamp(fh.read())
    assert first == second


def test_lacunary_command(tmp_path):
    status, doc, _ = _run(tmp_path, "lacunary", {"K": 4})
    assert status == 0
    assert doc["K"] == 4


def test_cluster_command(tmp_path):
    status, doc, _ = _run(tmp_path, "cluster",
                          {"function": {"kind": "monomial", "n": 1},
                           "zeta": [1.0, 0.0], "values": [[0.5, 0.0]],
                           "tol": 0.1})
    assert status == 0
    assert doc["hit_count"] == 1


def test_bad_config_exits_2(tmp_path):
    status, _, _ = _run(tmp_path, "bloch-norm", {"function": {"kind": "nope"}})
    assert status == 2


@pytest.mark.parametrize("command, cfg", [
    ("runge", {"arcs": [[0.5, 2.0]], "delta": 0.3, "degree_cap": 4}),
], ids=["runge"])
def test_degree_cap_below_the_first_fit_degree_exits_2(tmp_path, command, cfg):
    status, doc, _ = _run(tmp_path, command, cfg)
    assert status == 2
    assert doc is None


@pytest.mark.parametrize("target, bad, path", [
    ({"kind": "constant", "value": float("nan")}, "nan", "target.value"),
    ({"kind": "step", "jumps": [0.37, 2.77], "values": [0.0, float("nan")]}, "nan",
     "target.values[1]"),
    ({"kind": "monomial", "n": 2, "scale": float("inf")}, "inf", "target.scale"),
], ids=["constant", "step", "monomial-scale"])
def test_a_number_that_is_not_finite_is_a_config_error(tmp_path, capsys, target, bad, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, doc, _ = _run(tmp_path, "simul", {"target": target, "eps": 0.5})
    assert status == 2
    assert doc is None
    assert capsys.readouterr().err.strip() == \
        f"config error: {path}: config number {bad} is not finite"


_NORM_Z = {"function": {"kind": "coeffs", "coeffs": [0.0, 1.0]}}
_NAN = "config number nan is not finite"


@pytest.mark.parametrize("command, cfg, err", [
    ("decompose", {"target": {"kind": "step", "jumps": [float("nan"), 2.0],
                              "values": [0.0, 1.0]}, "dim": 1, "eps": 0.1},
     "target.jumps[0]: " + _NAN),
    ("certify", {"function": {"kind": "coeffs", "coeffs": [0.0, 1.0]},
                 "target": {"kind": "constant", "value": 0.0}, "n": 3, "tol": float("nan")},
     "tol: " + _NAN),
    ("runge", {"arcs": [[0.0, float("nan")]], "delta": 0.3}, "arcs[0][1]: " + _NAN),
    ("bloch-norm", {**_NORM_Z, "seed": float("nan")}, "seed: " + _NAN),
    ("bloch-norm", {**_NORM_Z, "seed": float("inf")}, "seed: config number inf is not finite"),
    ("bloch-norm", [_NORM_Z], "config must be a JSON object, not list"),
    ("bloch-norm", {**_NORM_Z, "seed": [1]}, "seed: seed must be a number, not list"),
], ids=["decompose-step-jumps", "certify-tol", "runge-arcs", "seed-nan", "seed-inf", "top-level-array",
        "seed-list"])
def test_a_number_that_is_not_finite_anywhere_in_a_config_is_a_config_error(
        tmp_path, capsys, command, cfg, err):
    # no --seed: main reads the seed from the config
    status, doc, _ = _run(tmp_path, command, cfg, seed=None)
    assert status == 2
    assert doc is None
    assert capsys.readouterr().err.strip() == f"config error: {err}"


def test_an_out_that_is_not_a_path_is_a_config_error(tmp_path, monkeypatch, capsys):
    # no --out: main reads the output directory from the config
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_NORM_Z, "out": 5}))
    assert main(["bloch-norm", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.strip() == \
        "config error: out: out must be a directory path, not int"
    assert not list(tmp_path.glob("*_report.json"))


_ZERO = {"kind": "constant", "value": 0.0}


def _cantor(**fields):
    measure = {"kind": "measure", "measure_kind": "cantor", "center": [1.0, 0.0],
               "arc_length": 1.5, "ratio": 0.25, "mass": 1.0}
    return {"kind": "inner", "inner_kind": "singular", "measure": {**measure, **fields}}


# a certificate document with a malformed entry that decoding would trip over
_CERTIFICATE = {"kind": "certificate", "target_id": "t", "n": 2, "radius": 0.5,
                "anchors": [[0.0, 0.0]], "d_sup": "abc", "good_measure": 1.0,
                "block_norm": 0.1, "partial_index": 3, "verified": True}


@pytest.mark.parametrize("command, cfg, err", [
    ("certify", {**_NORM_Z, "target": _ZERO, "n": 3, "anchors": []},
     "anchors: certify needs at least one anchor"),
    ("universal", {"targets": [_ZERO], "anchors": []},
     "anchors: universal build needs at least one anchor"),
    ("universal", {"targets": [_ZERO], "eps_schedule": []},
     "eps_schedule: eps schedule must not be empty"),
    ("universal", {"targets": [], "anchors": [[0.0, 0.0]]},
     "targets: universal build needs at least one target"),
    ("universal", {"enumerate": 0}, "enumerate: universal build needs at least one target"),
    ("universal", {"enumerate": -2}, "enumerate: universal build needs at least one target"),
    ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]}, "samples": 0},
     "samples: samples must be >= 1, got 0"),
    ("bloch-norm", {"function": {"kind": "expr", "node": "compose", "dim": 1, "children": [
        serialize.to_document(Polynomial1D(np.array([0.0, 0.0, 1.0]))),
        serialize.to_document(Polynomial1D(np.array([0.0, 1.0])))]}},
     "function.node: unknown expression node 'compose'"),
    ("bloch-norm", {"function": {"kind": "monomial", "n": -1}},
     "function.n: monomial degree n must be >= 0, got -1"),
    ("inner-quotient", {"inner": _cantor(arc_length=7.0), "samples": 64},
     "inner.measure.arc_length: cantor arc_length must lie in (0, 2 pi], got 7.0"),
    ("inner-quotient", {"inner": _cantor(ratio="0.3"), "samples": 64},
     "inner.measure.ratio: cantor ratio must lie in (0, 1/2), got '0.3'"),
    ("inner-quotient", {"inner": _cantor(mass="1"), "samples": 64},
     "inner.measure.mass: cantor mass must be a positive number, got '1'"),
    ("inner-quotient", {"inner": {"kind": "inner", "inner_kind": "singular", "measure": {
        "kind": "measure", "measure_kind": "atomic", "atoms": [[[1.0, 0.0], "0.5"]]}},
        "samples": 64},
     "inner.measure.atoms: atom masses must be positive numbers, got '0.5'"),
    ("inner-quotient", {"inner": _cantor(arc_length=True), "samples": 64},
     "inner.measure.arc_length: cantor arc_length must lie in (0, 2 pi], got True"),
    ("inner-quotient", {"inner": _cantor(mass=True), "samples": 64},
     "inner.measure.mass: cantor mass must be a positive number, got True"),
    ("inner-quotient", {"inner": _cantor(ratio=True), "samples": 64},
     "inner.measure.ratio: cantor ratio must lie in (0, 1/2), got True"),
    ("inner-quotient", {"inner": {"kind": "inner", "inner_kind": "singular", "measure": {
        "kind": "measure", "measure_kind": "atomic", "atoms": [[[1.0, 0.0], True]]}},
        "samples": 64},
     "inner.measure.atoms: atom masses must be positive numbers, got True"),
    ("little-bloch", {"function": {"kind": "polynd", "dim": 2,
                                   "terms": [[[1, 1], [1, 0]], [[2, 0], [0.5, 0]]]}},
     "function: little-Bloch profiles take one-variable functions"),
    ("simul", {"target": {"kind": "re"}, "eps": [0.5]}, "eps: expected a number, got [0.5]"),
    ("universal", {"targets": [_ZERO], "anchors": [[0.0]]},
     "anchors[0]: expected a number, got [0.0]"),
    ("runge", {"arcs": [[0.5, 2.0]], "delta": 0.3, "degree_cap": 8.7},
     "degree_cap: expected a whole number, got 8.7"),
    ("universal", {"targets": [_ZERO], "n_max": "5"}, "n_max: expected a number, got '5'"),
    ("simul", {"target": {"kind": "product_re"}, "eps": 0.5},
     "dim: dim must equal the target's arity: 2 for product_re, 1 for every other kind"),
    ("simul", {"target": {"kind": "step", "jumps": [2.0, 1.0], "values": [0, 1]}, "eps": 0.5},
     "target.jumps: step jumps must increase strictly inside [0, 2 pi), got [2.0, 1.0]"),
    ("simul", {"target": {"kind": "step", "jumps": [0.5, 7.0], "values": [0, 1]}, "eps": 0.5},
     "target.jumps: step jumps must increase strictly inside [0, 2 pi), got [0.5, 7.0]"),
    ("simul", {"target": {"kind": "step", "jumps": [], "values": []}, "eps": 0.5},
     "target.jumps: step jumps must increase strictly inside [0, 2 pi), got []"),
    ("certify", {**_NORM_Z, "target": {"kind": "product_re"}, "n": 3},
     "target: a target on the circle takes one variable, got {'kind': 'product_re'}"),
    ("universal", {"targets": [_ZERO, {"kind": "product_re"}]},
     "targets[1]: a target on the circle takes one variable, got {'kind': 'product_re'}"),
    ("weight-test", {"weight": {"kind": "custom-table", "table": [[0.0, 1.0], [0.5]]}},
     "weight.table[1]: expected a row of at least two numbers, got [0.5]"),
    ("weight-test", {"weight": {"kind": "custom-table", "table": [[0.0, "1"], [0.0, 1.0]]}},
     "weight.table[0][1]: expected a number, got '1'"),
    ("weight-test", {"weight": {"kind": "custom-table",
                                "table": [[0.0, 0.5, 1.0], [0.0, 1.0]]}},
     "weight.table: expected two rows of equal length, t values then omega values, "
     "got [[0.0, 0.5, 1.0], [0.0, 1.0]]"),
    ("weight-test", {"weight": {"kind": "custom-table", "table": [[0.0, 1.0]] * 3}},
     "weight.table: expected two rows of equal length, t values then omega values, "
     "got [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]"),
    ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [5]}, "samples": 64},
     "inner.atoms[0]: expected an [a, b] pair, got 5"),
    ("runge", {"arcs": [5], "delta": 0.3}, "arcs[0]: expected an [a, b] pair, got 5"),
    ("bloch-norm", {"function": {"kind": "poly1d", "coeffs": [5]}},
     "function.coeffs[0]: expected an [re, im] pair of numbers, got 5"),
    ("inner-quotient", {"inner": {"kind": "inner", "inner_kind": "singular", "measure": {
        "kind": "measure", "measure_kind": "atomic", "atoms": [[5]]}}, "samples": 64},
     "inner.measure.atoms[0]: expected an atom [[re, im], mass], got [5]"),
    ("certify", {**_NORM_Z, "target": _ZERO, "n": 3, "tol": 0.0},
     "tol: tol must lie in (0, inf), got 0.0"),
    ("certify", {**_NORM_Z, "target": _ZERO, "n": 3, "tol": -0.5},
     "tol: tol must lie in (0, inf), got -0.5"),
    # from j_max 53 on, 1 - 2^-(j_max + 1) rounds to 1.0 and adds no radius
    ("little-bloch", {**_NORM_Z, "j_max": 54}, "j_max: j_max must lie in [0, 53], got 54"),
    # a document that is no function is rejected before it is decoded
    ("bloch-norm", {"function": _CERTIFICATE},
     "function: cannot interpret function spec of kind 'certificate'"),
    ("inner-quotient", {"inner": _CERTIFICATE, "samples": 64},
     "inner: spec does not describe an inner function"),
    ("bloch-norm", {"function": {"kind": "arcs", "arcs": [[1.0, 0.0]]}},
     "function: cannot interpret function spec of kind 'arcs'"),
    ("inner-quotient", {"inner": {"kind": "poly1d", "coeffs": [5]}, "samples": 64},
     "inner: spec does not describe an inner function"),
], ids=["certify-no-anchor", "universal-no-anchor", "universal-no-eps", "universal-no-target",
        "universal-enumerate-0", "universal-enumerate-negative", "inner-quotient-no-samples",
        "compose-node", "monomial-negative-n", "cantor-long-arc", "cantor-text-ratio",
        "cantor-text-mass", "atomic-text-mass", "cantor-bool-arc-length", "cantor-bool-mass",
        "cantor-bool-ratio", "atomic-bool-mass",
        "little-bloch-two-variables", "simul-eps-list", "universal-anchor-one-entry",
        "runge-fractional-degree-cap", "universal-text-n-max", "simul-product-re-without-dim",
        "step-unsorted-jumps", "step-jump-past-2-pi", "step-no-jumps", "certify-product-re-target",
        "universal-product-re-target", "weight-table-short-row", "weight-table-text-entry",
        "weight-table-unequal-rows", "weight-table-three-rows", "atomic-atom-not-a-pair",
        "arc-not-a-pair", "poly1d-coefficient-not-a-pair", "measure-atom-not-a-pair",
        "certify-zero-tol", "certify-negative-tol", "little-bloch-j-max-54",
        "certificate-as-function", "certificate-as-inner", "arcs-as-function", "poly1d-as-inner"])
def test_a_vacuous_or_unknown_spec_is_a_config_error(tmp_path, capsys, command, cfg, err):
    status, doc, _ = _run(tmp_path, command, cfg)
    assert status == 2
    assert doc is None
    assert capsys.readouterr().err.strip() == f"config error: {err}"


_IMAX = np.iinfo(np.intp).max


def _polynd(dim, *alphas):
    return {"kind": "polynd", "dim": dim, "terms": [[alpha, [1.0, 0.0]] for alpha in alphas]}


@pytest.mark.parametrize("command, cfg, err", [
    ("bloch-norm", {"function": _polynd(2, [-1, 0]), "domain": "polydisc"},
     f"function.terms[0]: multi-index [-1, 0]: entry -1 is not a whole number in [0, {_IMAX}]"),
    ("bloch-norm", {"function": _polynd(2, [-1, 2], [1, 1]), "domain": "polydisc"},
     f"function.terms[0]: multi-index [-1, 2]: entry -1 is not a whole number in [0, {_IMAX}]"),
    ("bloch-norm", {"function": _polynd(2, [1.5, 0]), "domain": "polydisc"},
     f"function.terms[0]: multi-index [1.5, 0]: entry 1.5 is not a whole number in [0, {_IMAX}]"),
    ("certify", {"function": _polynd(1, [-2]), "target": _ZERO, "n": 3},
     f"function.terms[0]: multi-index [-2]: entry -2 is not a whole number in [0, {_IMAX}]"),
    ("bloch-norm", {"function": _polynd(2, [10 ** 20, 0]), "domain": "polydisc"},
     "function.terms[0]: multi-index [100000000000000000000, 0]: entry 100000000000000000000 "
     f"is not a whole number in [0, {_IMAX}]"),
    ("bloch-norm", {"function": {**_polynd(1, [1]), "dim": True}},
     "function.dim: dim must be a whole number >= 1, got True"),
    ("bloch-norm", {"function": {**_polynd(1), "terms": [[1]]}},
     "function.terms[0]: expected a term [multi-index, [re, im]], got [1]"),
    ("bloch-norm", {"function": {**_polynd(1), "terms": [5]}},
     "function.terms[0]: expected a term [multi-index, [re, im]], got 5"),
    ("bloch-norm", {"function": _polynd(1, [True])},
     f"function.terms[0]: multi-index [True]: entry True is not a whole number in [0, {_IMAX}]"),
], ids=["negative", "negative-beside-a-valid-term", "fractional", "certify-negative", "too-large",
        "bool-dim", "term-of-one-entry", "term-not-a-list", "bool-entry"])
def test_a_malformed_polynd_is_a_config_error(tmp_path, capsys, command, cfg, err):
    status, doc, _ = _run(tmp_path, command, cfg)
    assert (status, doc) == (2, None)
    assert capsys.readouterr().err.strip() == f"config error: {err}"


def test_a_type_error_inside_a_reader_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # readers raise ValueError for bad input; anything else is their own fault
    def fault(alpha, dim):
        raise TypeError("fault inside the reader")

    monkeypatch.setattr("blochlab.serialize.multi_index", fault)
    with pytest.raises(TypeError, match="fault inside the reader"):
        _run(tmp_path, "bloch-norm", {"function": _polynd(1, [1])})
    assert "config error" not in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{not json")
    for name in ("bad.json", "missing.json"):
        assert main(["simul", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
    assert not list(tmp_path.glob("*_report.json"))


def test_a_missing_key_is_named(tmp_path, capsys):
    status, doc, _ = _run(tmp_path, "simul", {"target": {"kind": "re"}})
    assert (status, doc) == (2, None)
    assert capsys.readouterr().err.strip() == "config error: eps: missing key 'eps'"


def test_every_command_has_a_table_and_every_benchmark_config_parses(monkeypatch):
    for command, handler in cli._HANDLERS.items():
        assert [p for p in inspect.signature(handler).parameters.values()
                if p.kind is p.KEYWORD_ONLY], command
    configs = [_shipped(name) for name in sorted(os.listdir(CONFIG_DIR)) if name.endswith(".json")]
    assert configs
    for cfg in configs:
        cli._parse(cfg["command"], cfg)
    # the benchmark's op configs, read from perfbench/workloads.py without changing it; the
    # disc_lemma re-two-atom op sends simul an inner key, which stays ignored
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    ops = [op for w in workloads.WORKLOADS for seed in (1, 101)
           for op in workloads.build_ops(w, seed)]
    assert any("inner" in op.config and op.command == "simul" for op in ops)
    # the cantor_quotient ops still send the Cantor measure's retired depth key
    assert any("depth" in op.config.get("inner", {}).get("measure", {}) for op in ops)
    for op in ops:
        cli._parse(op.command, op.config, ValueError)


def test_a_report_stores_its_config_as_given(tmp_path):
    cfg = {"target": {"kind": "constant", "value": 0}, "eps": 0.5, "note": ["not a key"]}
    status, doc, _ = _run(tmp_path, "simul", cfg)
    assert status == 0
    assert doc["config"] == cfg


def test_a_bad_stored_config_is_named_under_the_artifact(tmp_path, capsys):
    status, doc, report = _run(tmp_path, "simul", {"target": _ZERO, "eps": 0.5})
    assert status == 0
    doc["config"]["eps"] = [0.5]
    serialize.save(report, doc)
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert (status2, vdoc) == (2, None)
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        "config error: artifact.config.eps: expected a number, got [0.5]"


@pytest.mark.parametrize("artifact, err", [
    (5, "artifact: expected a path, got 5"),
    (["a"], "artifact: expected a path, got ['a']"),
    ("missing.json", "artifact: cannot read 'missing.json': No such file or directory"),
], ids=["number", "list", "missing-file"])
def test_a_bad_artifact_path_is_a_config_error(tmp_path, monkeypatch, capsys, artifact, err):
    monkeypatch.chdir(tmp_path)
    status, doc, _ = _run(tmp_path, "verify", {"artifact": artifact})
    assert (status, doc) == (2, None)
    assert capsys.readouterr().err.strip() == f"config error: {err}"


def test_bloch_norm_of_a_simul_f_reproduces_its_norms(tmp_path):
    # simul writes its f as a one-variable polynd; bloch-norm reads it as the
    # polynomial it was fitted as, certified bound included
    (tmp_path / "simul").mkdir()
    _, simul, _ = _run(tmp_path / "simul", "simul", {"target": {"kind": "re"}, "eps": 0.5})
    status, doc, _ = _run(tmp_path, "bloch-norm", {"function": simul["f"]})
    assert status == 0
    assert (simul["f"]["kind"], simul["f"]["dim"]) == ("polynd", 1)
    rep = doc["report"]
    assert rep["norm"] == simul["report"]["norm"]
    assert rep["value_at_zero"] + rep["certified"] == simul["report"]["certified_norm"]
    # what the benchmark's quality check reads: the coefficients rebuilt from
    # terms and total_degree certify the same norm as a one-variable polynomial
    f = serialize.from_document(simul["f"])
    coeffs = np.zeros(f.total_degree + 1, dtype=complex)
    for alpha, c in f.terms.items():
        coeffs[alpha[0]] = c
    assert np.array_equal(coeffs, f.coeffs)
    assert bloch_norm(Polynomial1D(coeffs)).certified_norm == simul["report"]["certified_norm"]


# records, after each run, whether scipy has been imported
_SCIPY_PROBE = """
import json, os, sys
from blochlab.cli import main

out, loaded = sys.argv[1], []
for i, (command, cfg) in enumerate(json.loads(sys.argv[2])):
    path = os.path.join(out, f"{i}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    status = main([command, "--config", path, "--out", out, "--seed", "5"])
    loaded.append([command, status, "scipy" in sys.modules])
print(json.dumps(loaded))
"""


def test_only_the_boundary_fits_load_scipy(tmp_path):
    runs = [("simul", {"target": {"kind": "re"}, "eps": 0.5}),
            ("simul", {"target": {"kind": "product_re"}, "eps": 0.5, "dim": 2}),
            ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]},
                                "samples": 2000}),
            ("runge", {"arcs": [[0.5, 2.0]], "delta": 0.3})]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(runs)],
                          env=env, check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["simul", 0, False], ["simul", 0, False], ["inner-quotient", 0, False],
        ["runge", 0, True]]


def test_simul_ignores_an_inner_key(tmp_path):
    cfg = {"target": {"kind": "re"}, "eps": 0.5}
    (tmp_path / "plain").mkdir()
    _, plain, _ = _run(tmp_path / "plain", "simul", cfg)
    status, doc, report = _run(tmp_path, "simul",
                               {**cfg, "inner": {"kind": "atomic",
                                                 "atoms": [[1.57, 0.3], [-1.57, 0.4]]}})
    assert status == 0
    assert doc["report"] == plain["report"] and doc["f"] == plain["f"]
    assert _verify(tmp_path, report) == (0, [])


def test_runge_miss_writes_its_best_fit_and_exits_1(tmp_path):
    status, doc, report = _run(tmp_path, "runge",
                               {"arcs": [[0.1, 6.0]], "delta": 0.01, "degree_cap": 16})
    assert status == 1
    assert doc["achieved"] is False
    assert doc["margin_on_set"] >= 0.01
    assert _verify(tmp_path, report) == (1, ["status"])


def test_runge_gap_floor_is_below_the_gap_sup_of_its_fit(tmp_path):
    # Jensen's inequality for P - 1 with P(0) = 0: a margin delta on F forces
    # sup over the gaps of |P - 1| >= delta^(-m(F)/m(gaps))
    arcs = [[0.8, np.pi - 0.8], [np.pi + 0.8, 2 * np.pi - 0.8]]
    status, doc, _ = _run(tmp_path, "runge", {"arcs": arcs, "delta": 1e-3, "degree_cap": 32})
    assert status == 1
    m_F = (2 * np.pi - 3.2) / (2 * np.pi)
    floor = m_F / (1 - m_F) * -np.log10(doc["margin_on_set"])
    assert doc["gap_floor_log10"] == pytest.approx(floor, rel=1e-12)
    assert doc["gap_floor_log10"] > 0.3
    P = serialize.from_document(doc["poly"])
    gaps = np.concatenate([np.linspace(np.pi - 0.8, np.pi + 0.8, 2 ** 14),
                           np.linspace(2 * np.pi - 0.8, 2 * np.pi + 0.8, 2 ** 14)])
    assert np.max(np.abs(P(np.exp(1j * gaps)) - 1.0)) >= 10.0 ** doc["gap_floor_log10"]


def test_decompose_miss_writes_its_best_sum_and_exits_1(tmp_path):
    status, doc, report = _run(tmp_path, "decompose",
                               {"target": {"kind": "product_re"}, "eps": 1e-17})
    assert status == 1
    assert doc["achieved"] is False
    assert doc["terms"] == 1 and doc["error"] >= 1e-17
    assert _verify(tmp_path, report) == (1, ["status"])


@pytest.mark.parametrize("cfg", [
    {"target": {"kind": "constant", "value": 1.0}, "dim": 3, "eps": 0.1},
    {"target": {"kind": "product_re"}, "dim": 3, "eps": 0.1},
    {"target": {"kind": "product_re"}, "dim": 1, "eps": 0.1},
    {"target": {"kind": "constant", "value": 1.0}, "eps": 0.1},
], ids=["constant-dim3", "product_re-dim3", "product_re-dim1", "constant-dim2"])
def test_decompose_on_a_bad_dimension_is_a_config_error(tmp_path, capsys, cfg):
    status, doc, _ = _run(tmp_path, "decompose", cfg)
    assert status == 2
    assert doc is None
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [3, 0])
def test_simul_on_a_bad_dimension_is_a_config_error(tmp_path, capsys, dim):
    status, doc, _ = _run(tmp_path, "simul", {"target": {"kind": "product_re"},
                                              "dim": dim, "eps": 0.5})
    assert status == 2
    assert doc is None
    assert "config error" in capsys.readouterr().err


def test_runge_on_a_gapless_arc_set_is_a_stage_failure(tmp_path, capsys):
    status, doc, _ = _run(tmp_path, "runge", {"arcs": [[0.0, 6.2831]], "delta": 0.3})
    assert status == 1
    assert doc is None
    assert "complementary gap" in capsys.readouterr().err


def test_a_gram_matrix_that_is_not_positive_definite_is_a_stage_failure(
        tmp_path, monkeypatch, capsys):
    def fail(cr, b, **kwargs):
        raise np.linalg.LinAlgError("Singular principal minor")

    monkeypatch.setattr("scipy.linalg.solve_toeplitz", fail)
    status, doc, _ = _run(tmp_path, "runge", {"arcs": [[0.5, 2.0]], "delta": 0.3})
    assert status == 1
    assert doc is None
    assert capsys.readouterr().err.strip().splitlines() == [
        "stage failure [runge]: the Gram matrix of the degree-8 fit is not "
        "numerically positive definite"]


def test_a_norm_fit_normal_matrix_that_is_not_positive_definite_is_a_stage_failure(
        tmp_path, monkeypatch, capsys):
    normal = approximation._ConeRows.normal
    monkeypatch.setattr(approximation._ConeRows, "normal", lambda self, *w: -normal(self, *w))
    status, doc, _ = _run(tmp_path, "simul", {"target": {"kind": "re"}, "eps": 0.5})
    assert status == 1
    assert doc is None
    assert capsys.readouterr().err.strip().splitlines() == [
        "stage failure [simul]: the normal matrix of the degree-8 norm fit is not "
        "numerically positive definite"]


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
def test_a_stage_fault_is_not_a_config_error(tmp_path, monkeypatch, capsys, error):
    def fail(phi, eps):
        raise error("fault inside the stage")

    monkeypatch.setattr("blochlab.cli.simul_approx_disc", fail)
    with pytest.raises(error, match="fault inside the stage"):
        _run(tmp_path, "simul", {"target": {"kind": "re"}, "eps": 0.5})
    assert "config error" not in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


# two arcs with gaps of 1.6; the fit runs degrees 8 to 256
_RUNGE_TWO_ARCS = {"arcs": [[0.8, np.pi - 0.8], [np.pi + 0.8, 2 * np.pi - 0.8]],
                   "delta": 0.25}


# a dense two-variable polynomial of degree (14, 11) with decaying coefficients
_POLYND_2VAR = serialize.to_document(PolynomialND(
    np.random.default_rng(2).normal(size=(15, 12, 2)).view(complex)[..., 0]
    * 0.8 ** np.add.outer(np.arange(15), np.arange(12))))


@pytest.mark.parametrize("command, cfg", [
    ("universal", _shipped("universal_two_constants.json")),
    ("runge", _RUNGE_TWO_ARCS),
    ("bloch-norm", {"function": _POLYND_2VAR, "domain": "polydisc"}),
    ("bloch-norm", {"function": _POLYND_2VAR, "domain": "ball"}),
    ("simul", {"target": {"kind": "step", "jumps": [0.37, 2.77], "values": [0.0, 1.0]},
               "eps": 0.5}),
    ("simul", {"target": {"kind": "product_re"}, "eps": 0.5, "dim": 2}),
], ids=["universal", "runge", "bloch-norm-polydisc", "bloch-norm-ball", "simul-step",
        "simul-product-re"])
def test_report_does_not_depend_on_the_blas_thread_count(tmp_path, command, cfg):
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    reports = []
    for threads in ("1", "2"):
        out = os.path.join(tmp_path, threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c",
                        "import sys; from blochlab.cli import main; sys.exit(main(sys.argv[1:]))",
                        command, "--config", cfg_path, "--out", out, "--seed", "5"],
                       env=env, check=True, capture_output=True)
        with open(os.path.join(out, f"{command.replace('-', '_')}_report.json")) as fh:
            reports.append(_strip_timestamp(fh.read()))
    assert reports[0] == reports[1]


def test_every_shipped_config_verifies(tmp_path):
    config_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    assert names
    for name in names:
        cfg_path = os.path.join(config_dir, name)
        with open(cfg_path) as fh:
            command = json.load(fh)["command"]
        status = main([command, "--config", cfg_path, "--out", str(tmp_path),
                       "--seed", "7"])
        assert status == 0, name
        report = os.path.join(tmp_path, f"{command.replace('-', '_')}_report.json")
        status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report},
                                name=f"verify-{name}")
        assert status2 == 0 and vdoc["passed"], name


def test_little_bloch_writes_profile(tmp_path):
    status, doc, _ = _run(tmp_path, "little-bloch",
                          {"function": {"kind": "monomial", "n": 4}})
    assert status == 0
    assert os.path.exists(os.path.join(tmp_path, "little_bloch_profile.csv"))


# One small run per verifiable kind, and the stored values to forge in its
# report.  The transport and universal forgeries passed the per-kind
# verifiers that re-run replaced.
FORGERIES = [
    ("bloch-norm", {"function": {"kind": "monomial", "n": 2}},
     {"report.seminorm_sup": 0.5}),
    ("little-bloch", {"function": {"kind": "monomial", "n": 4}},
     {"outer_shell_sups[4]": 0.0}),
    ("weighted", {"function": {"kind": "monomial", "n": 2},
                  "weight": {"kind": "log-power", "parameter": 0.5}},
     {"report.seminorm_sup": 0.5}),
    ("weight-test", {"weight": {"kind": "log-power", "parameter": 0.5}, "x": 0.5},
     {"report.verdict": "converges"}),
    ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]},
                        "samples": 2000},
     {"max_quotient": 0.5}),
    ("shrink", {"inner": {"kind": "atomic", "atoms": [[1.57, 0.3], [-1.57, 0.4]]},
                "eta": 0.5},
     {"chain_length": 1}),
    ("transport", _shipped("transport_atomic.json"),
     {"preimage": 0.9, "deviation": 0.0}),
    ("runge", {"arcs": [[0.5, 2.0]], "delta": 0.3},
     {"degree": 4}),
    ("decompose", {"target": {"kind": "product_re"}, "eps": 0.5},
     {"error": 0.25}),
    ("simul", {"target": {"kind": "constant", "value": 0.0}, "eps": 0.5},
     {"report.measure": 0.5}),
    ("universal", _shipped("universal_two_constants.json"),
     {"certificates[0].d_sup": 0.25, "certificates[0].good_measure": 0.1}),
    ("certify", {"function": {"kind": "coeffs", "coeffs": [1.0]},
                 "target": {"kind": "constant", "value": 1.0},
                 "n": 2, "anchors": [[0.0, 0.0]]},
     {"d_sup": 0.1}),
    ("cluster", {"function": {"kind": "monomial", "n": 1}, "zeta": [1.0, 0.0],
                 "values": [[0.5, 0.0]], "tol": 0.1},
     {"hits[0].hit": False}),
    ("lacunary", {"K": 4},
     {"report.seminorm_sup": 0.1}),
]


@pytest.mark.parametrize("command, cfg, forged", FORGERIES,
                         ids=[f[0] for f in FORGERIES])
def test_verify_names_each_forged_key(tmp_path, command, cfg, forged):
    status, doc, report = _run(tmp_path, command, cfg)
    assert status == 0
    assert _verify(tmp_path, report) == (0, [])
    for key, value in forged.items():
        _set(doc, key, value)
    serialize.save(report, doc)
    assert _verify(tmp_path, report, name="v2") == (1, sorted(forged))


def test_verify_compares_side_files_and_leaves_them_alone(tmp_path):
    status, _, report = _run(tmp_path, "little-bloch",
                             {"function": {"kind": "monomial", "n": 4}})
    assert status == 0
    csv = os.path.join(tmp_path, "little_bloch_profile.csv")
    with open(csv, "a") as fh:
        fh.write("1.0,0.0\n")
    with open(csv) as fh:
        forged = fh.read()
    assert _verify(tmp_path, report) == (1, ["little_bloch_profile.csv"])
    # the re-run wrote its own copy elsewhere
    with open(csv) as fh:
        assert fh.read() == forged


def _fake_quotient(spec, z):
    return np.full(np.shape(z), 1.5)


def _fake_transport(spec, F, samples, seed):
    return TransportReport(F.measure, MeasureEstimate(0.5, samples),
                           abs(0.5 - F.measure), 1.0, False)


def _fake_weight_test(w, x, tolerance):
    # partial sums that fall cannot diverge
    return IntegralTestResult("diverges", (2.0, 1.0), (0.5, 0.25))


@pytest.mark.parametrize("command, cfg, name, fake", [
    ("inner-quotient", {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]}, "samples": 64},
     "hyperbolic_quotient", _fake_quotient),
    ("transport", _shipped("transport_atomic.json"),
     "loewner_transport_check", _fake_transport),
    ("weight-test", {"weight": {"kind": "log-power", "parameter": 0.5}},
     "weight_integral_test", _fake_weight_test),
], ids=["inner-quotient", "transport", "weight-test"])
def test_broken_contract_exits_1_and_fails_verify(tmp_path, monkeypatch,
                                                  command, cfg, name, fake):
    monkeypatch.setattr(f"blochlab.cli.{name}", fake)
    status, _, report = _run(tmp_path, command, cfg)
    assert status == 1
    assert _verify(tmp_path, report) == (1, ["status"])


def test_quadrature_error_is_a_stage_failure(tmp_path, monkeypatch, capsys):
    def fail(spec, z):
        raise QuadratureError("Cantor quadrature did not converge")

    monkeypatch.setattr("blochlab.cli.hyperbolic_quotient", fail)
    status, _, _ = _run(tmp_path, "inner-quotient",
                        {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]}, "samples": 64})
    assert status == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["stage failure [inner-quotient]: Cantor quadrature did not converge"]


# the default Cantor inner function, SingularMeasureSpec(kind="cantor")
_DEFAULT_CANTOR = {"kind": "inner", "inner_kind": "singular", "measure": {
    "kind": "measure", "measure_kind": "cantor", "center": [1.0, 0.0],
    "arc_length": np.pi / 2, "ratio": 1.0 / 3.0, "mass": 1.0}}


def test_bloch_norm_of_the_default_cantor_inner_function(tmp_path):
    # the disc grid's outermost shell lies 6e-8 from the support, which the
    # tree quadrature resolves: the run reports a norm, not a stage failure
    status, doc, report = _run(tmp_path, "bloch-norm", {"function": _DEFAULT_CANTOR})
    assert status == 0
    assert doc["function"] == _DEFAULT_CANTOR
    assert doc["report"]["norm"] == pytest.approx(1.1034263953389902, abs=1e-9)
    assert _verify(tmp_path, report) == (0, [])


def test_a_cantor_depth_key_is_read_and_ignored(tmp_path):
    spec = serialize.from_document(_DEFAULT_CANTOR)
    assert spec == InnerSpec.singular(SingularMeasureSpec(kind="cantor"))
    for depth in (16, -5, 2.5):
        doc = {**_DEFAULT_CANTOR, "measure": {**_DEFAULT_CANTOR["measure"], "depth": depth}}
        assert serialize.from_document(doc["measure"]) == spec.measure
        assert serialize.from_document(doc) == spec
        assert cli._parse("inner-quotient", {"inner": doc})["inner"] == spec
    # a shrink report's spec is written without the key and reads back to the spec
    status, out, _ = _run(tmp_path, "shrink", {"inner": _DEFAULT_CANTOR, "eta": 0.9,
                                               "max_chain": 8})
    assert status == 0
    assert all("depth" not in link["measure"] for link in out["spec"]["chain"])
    assert serialize.from_document(out["spec"]) == InnerSpec.composition(
        [spec] * out["chain_length"])
