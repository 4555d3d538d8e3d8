"""Tests of the benchmark itself (run with: python -m pytest perfbench/tests)."""

import importlib
import json
import os

import pytest

import run
import tracing
import workloads
from blochlab import cli

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _quotient_op(label, inner, seed=3):
    return workloads.Op(label, "inner-quotient", {"inner": inner, "samples": 64}, seed)


GOOD = {"kind": "blaschke", "zeros": [[0.3, 0.2]]}
BAD = {"kind": "atomic", "atoms": []}  # the program rejects an empty measure


def test_raising_op_is_counted_failed_and_the_run_continues(tmp_path):
    ops = [_quotient_op("good-1", GOOD), _quotient_op("bad", BAD), _quotient_op("good-2", GOOD)]
    passes = run.run_passes(cli, ops, str(tmp_path), seconds=0.0, trace=False)
    results = passes[0]["results"]
    assert [r.status for r in results] == [0, None, 0]
    assert results[1].error.startswith("ValueError")
    verdicts = run.verify_artifacts(cli, ops, results, str(tmp_path))
    assert verdicts == [True, None, True]
    attempted, failed, mismatches = run.tally(ops, passes, verdicts, [])
    assert (attempted, failed, mismatches) == (3, 1, [])


def test_tracing_restores_the_original_functions(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in tracing.PATCHES}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.run_scenario is not originals[("blochlab.cli", "run_scenario")]
            res = run.run_op(cli, _quotient_op("bad", BAD), str(tmp_path))
            assert res.status is None
            raise RuntimeError("abort inside the traced region")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"
    assert tracer.spans[0][0] == "cli.run_scenario" and tracer.spans[0][4] == "ValueError"


def test_op_list_is_fixed_by_the_seed():
    for name in workloads.WORKLOADS:
        ops = workloads.build_ops(name, 7)
        assert ops == workloads.build_ops(name, 7)
        assert [op.seed for op in ops] != [op.seed for op in workloads.build_ops(name, 8)]


def test_per_layer_names_match_benchmark_json(tmp_path):
    ops = [_quotient_op("good", GOOD)]
    passes = run.run_passes(cli, ops, str(tmp_path), seconds=0.0, trace=True)
    assert [p["traced"] for p in passes] == [False, True]
    layers = passes[1]["layers"]
    assert layers["inner.hyperbolic_quotient.points"] == 64
    assert layers["trace.unattributed_s"] >= 0.0
    qual = run.quality(ops, passes[0]["results"], str(tmp_path))
    metrics = run.per_layer(passes, passes[0]["wall"], 0.0, qual)
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
