import json
import os
import re

import numpy as np
import pytest

from blochlab import serialize
from blochlab.cli import main


def _run(tmp_path, command, cfg, seed=5, name="cfg"):
    cfg_path = os.path.join(tmp_path, f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    status = main([command, "--config", cfg_path, "--out", str(tmp_path),
                   "--seed", str(seed)])
    report = os.path.join(tmp_path, f"{command.replace('-', '_')}_report.json")
    doc = serialize.load(report) if os.path.exists(report) else None
    return status, doc, report


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
    # tamper with the stored metric by +0.1 and expect a failure
    doc["d_sup"] = doc["d_sup"] + 0.1
    serialize.save(report, doc)
    status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name="v2")
    assert status3 == 1
    assert not vdoc3["passed"]


def test_verify_simul_detects_tampered_measure(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "simul_zero.json")
    with open(config) as fh:
        cfg = json.load(fh)
    status, doc, report = _run(tmp_path, "simul", cfg)
    assert status == 0
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    # the stored measure must equal the exact measure of the stored E
    doc["report"]["measure"] -= 0.01
    serialize.save(report, doc)
    status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name="v2")
    assert status3 == 1
    assert not vdoc3["passed"]


def test_verify_polydisc_simul_detects_tampered_measure(tmp_path):
    cfg = {"target": {"kind": "product_re"}, "eps": 0.5, "dim": 2}
    status, doc, report = _run(tmp_path, "simul", cfg)
    assert status == 0
    assert len(doc["E"]) == 2
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v1")
    assert status2 == 0 and vdoc["passed"]
    # the stored measure must equal the product of the stored axis measures,
    # and norm and sup_error are recomputed from the stored f, E and target
    for key in ("measure", "norm", "sup_error"):
        tampered = json.loads(json.dumps(doc))
        tampered["report"][key] -= 0.01
        serialize.save(report, tampered)
        status3, vdoc3, _ = _run(tmp_path, "verify", {"artifact": report}, name=f"v-{key}")
        assert status3 == 1, key
        assert [c["check"] for c in vdoc3["checks"] if not c["passed"]] == [key]


def test_verify_polydisc_bloch_norm_artifact(tmp_path):
    poly = {"kind": "polynd", "dim": 2, "terms": [[[1, 8], [1.0, 0.0]]]}
    cfg = {"function": {"kind": "expr", "node": "polynd", "dim": 2, "poly": poly},
           "domain": "polydisc"}
    status, doc, report = _run(tmp_path, "bloch-norm", cfg)
    assert status == 0
    assert doc["report"]["seminorm_sup"] == pytest.approx(1.0, abs=0.01)
    status2, vdoc, _ = _run(tmp_path, "verify", {"artifact": report}, name="v")
    assert status2 == 0 and vdoc["passed"]


def test_determinism_same_seed_byte_identical(tmp_path):
    cfg = {"function": {"kind": "monomial", "n": 3}}
    _, _, report = _run(tmp_path, "bloch-norm", cfg, seed=11)
    first = _strip_timestamp(open(report).read())
    _, _, report = _run(tmp_path, "bloch-norm", cfg, seed=11)
    second = _strip_timestamp(open(report).read())
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
