import json
import os
import re

import numpy as np
import pytest

from blochlab import serialize
from blochlab.blochnorm import IntegralTestResult
from blochlab.cli import main
from blochlab.inner import QuadratureError, TransportReport
from blochlab.numerics import MeasureEstimate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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
    return TransportReport(F.measure, MeasureEstimate(0.5, 0.01, samples),
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
