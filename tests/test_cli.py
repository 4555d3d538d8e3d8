import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blochlab import serialize
from blochlab.blochnorm import IntegralTestResult
from blochlab.cli import main
from blochlab.inner import QuadratureError, TransportReport
from blochlab.numerics import MeasureEstimate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def _run(tmp_path, command, cfg, seed=5, name="cfg"):
    cfg_path = os.path.join(tmp_path, f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    status = main([command, "--config", cfg_path, "--out", str(tmp_path),
                   "--seed", str(seed)])
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


def test_inner_quotient_schwarz_pick(tmp_path):
    status, doc, _ = _run(tmp_path, "inner-quotient",
                          {"inner": {"kind": "atomic", "atoms": [[0.0, 0.5]]},
                           "samples": 20000})
    assert status == 0
    assert doc["schwarz_pick_ok"]


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


def test_universal_empty_targets(tmp_path):
    status, doc, _ = _run(tmp_path, "universal",
                          {"targets": [], "eps_schedule": [0.3],
                           "anchors": [[0.0, 0.0]]})
    assert status == 0
    assert doc["certificates"] == []


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


@pytest.mark.parametrize("target, bad", [
    ({"kind": "constant", "value": float("nan")}, "nan"),
    ({"kind": "step", "jumps": [0.37, 2.77], "values": [0.0, float("nan")]}, "nan"),
    ({"kind": "monomial", "n": 2, "scale": float("inf")}, "inf"),
], ids=["constant", "step", "monomial-scale"])
def test_a_number_that_is_not_finite_is_a_config_error(tmp_path, capsys, target, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, doc, _ = _run(tmp_path, "simul", {"target": target, "eps": 0.5})
    assert status == 2
    assert doc is None
    assert capsys.readouterr().err.strip() == f"config error: config number {bad} is not finite"


@pytest.mark.parametrize("command, cfg", [
    ("decompose", {"target": {"kind": "step", "jumps": [float("nan"), 2.0],
                              "values": [0.0, 1.0]}, "dim": 1, "eps": 0.1}),
    ("certify", {"function": {"kind": "coeffs", "coeffs": [0.0, 1.0]},
                 "target": {"kind": "constant", "value": 0.0}, "n": 3, "tol": float("nan")}),
    ("runge", {"arcs": [[0.0, float("nan")]], "delta": 0.3}),
], ids=["decompose-step-jumps", "certify-tol", "runge-arcs"])
def test_a_number_that_is_not_finite_anywhere_in_a_config_is_a_config_error(
        tmp_path, capsys, command, cfg):
    status, doc, _ = _run(tmp_path, command, cfg)
    assert status == 2
    assert doc is None
    assert capsys.readouterr().err.strip() == "config error: config number nan is not finite"


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
    def fail(mu):
        raise np.linalg.LinAlgError("leading minor 2 of the Toeplitz matrix is not "
                                    "positive definite")

    monkeypatch.setattr("blochlab.approximation._toeplitz_cholesky", fail)
    status, doc, _ = _run(tmp_path, "runge", {"arcs": [[0.5, 2.0]], "delta": 0.3})
    assert status == 1
    assert doc is None
    assert capsys.readouterr().err.strip().splitlines() == [
        "stage failure [runge]: the Gram matrix of the degree-8 fit is not "
        "numerically positive definite"]


# two arcs with gaps of 1.6; the fit runs degrees 8 to 256
_RUNGE_TWO_ARCS = {"arcs": [[0.8, np.pi - 0.8], [np.pi + 0.8, 2 * np.pi - 0.8]],
                   "delta": 0.25}


@pytest.mark.parametrize("command, cfg", [
    ("universal", _shipped("universal_two_constants.json")),
    ("runge", _RUNGE_TWO_ARCS),
], ids=["universal", "runge"])
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
        with open(os.path.join(out, f"{command}_report.json")) as fh:
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
