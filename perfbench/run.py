"""Outside-in benchmark of blochlab: run one workload, check it, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload disc_lemma --seed 1 --seconds 20 --trace 0

Every op is one ``blochlab.cli.run_scenario`` call that writes one report
document.  After set-up (import, config generation, one warm-up op) the
workload's pass is repeated until ``--seconds`` have been spent.  Outside
the timed region every artifact is checked with the CLI ``verify``
subcommand, and repeated runs of one op must give byte-identical reports
apart from ``timestamp``.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics.  The line before it is a
JSON record of provenance, per-op outcomes and report-level quality.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread (<= nproc on any machine): with the default two OpenBLAS
# threads the Cantor ops alone vary by a quarter from run to run.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

_TIMESTAMP = re.compile(r'"timestamp":[^,}]*')


@dataclass
class OpResult:
    seconds: float
    status: int | None           # exit status; None when the op raised
    error: str | None
    report: str | None           # SHA-256 of the report text, timestamp blanked

    @property
    def outcome(self):
        return (self.status, self.error, self.report)


def _report_path(out: str, command: str) -> str:
    return os.path.join(out, f"{command.replace('-', '_')}_report.json")


def _first_dir(work: str, k: int) -> str:
    """Where op ``k`` of the first pass writes its artifact (kept for the checks)."""
    return os.path.join(work, "first", f"op{k}")


def run_op(cli, op, out: str) -> OpResult:
    """Run one op; a raising op is a result, not an abort."""
    os.makedirs(out, exist_ok=True)
    start = time.perf_counter()
    try:
        status, error = cli.run_scenario(op.command, op.config, out, op.seed), None
    except Exception as exc:  # the program's own failure: count it, keep going
        status, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    report = None
    if status is not None:
        with open(_report_path(out, op.command)) as fh:
            text = _TIMESTAMP.sub('"timestamp":0', fh.read())
        report = hashlib.sha256(text.encode()).hexdigest()
    return OpResult(seconds, status, error, report)


def run_passes(cli, ops, work: str, seconds: float, trace: bool) -> list:
    """Repeat the pass for ``seconds`` (traced passes alternate in when tracing).

    Returns one dict per pass: wall time (sum of op times), op results and,
    for traced passes, the per-layer metrics.
    """
    passes = []
    start = time.perf_counter()
    # start another pass only while one more of average length ends in time
    while len(passes) < (2 if trace else 1) or \
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer()
        results = []
        with tracer.installed() if traced else contextlib.nullcontext():
            for k, op in enumerate(ops):
                out = _first_dir(work, k) if not passes else os.path.join(work, "repeat", f"op{k}")
                results.append(run_op(cli, op, out))
        wall = sum(r.seconds for r in results)
        passes.append({"traced": traced, "wall": wall, "results": results,
                       "layers": tracing.layer_metrics(tracer.spans, wall) if traced else None})
    return passes


def verify_artifacts(cli, ops, first, work: str) -> list:
    """CLI ``verify`` on each first-pass artifact: True, False, or None (no artifact)."""
    verdicts = []
    for k, (op, res) in enumerate(zip(ops, first)):
        if res.status != 0:
            verdicts.append(None)
            continue
        artifact = _report_path(_first_dir(work, k), op.command)
        out = os.path.join(work, "verify", f"op{k}")
        os.makedirs(out, exist_ok=True)
        try:
            verdicts.append(cli.run_scenario("verify", {"artifact": artifact}, out, op.seed) == 0)
        except Exception:
            verdicts.append(False)
    return verdicts


def quality(ops, first, work: str) -> dict:
    """Report-level quality of the first pass's artifacts (0 where none apply)."""
    from blochlab import serialize
    from blochlab.blochnorm import bloch_norm
    from blochlab.expressions import Polynomial1D
    import numpy as np

    sup_errors, measures, certified, certs = [], [], [], []
    for k, (op, res) in enumerate(zip(ops, first)):
        if res.report is None:
            continue
        doc = serialize.load(_report_path(_first_dir(work, k), op.command))
        if op.command == "simul" and doc["f"]["dim"] == 1:
            sup_errors.append(doc["report"]["sup_error"])
            measures.append(doc["report"]["measure"])
            f = serialize.from_document(doc["f"])
            coeffs = np.zeros(f.total_degree + 1, dtype=complex)
            for alpha, c in f.terms.items():
                coeffs[alpha[0]] = c
            # a certified upper bound: a coarser grid can only raise it
            certified.append(bloch_norm(Polynomial1D(coeffs)).certified_norm)
        elif op.command == "universal":
            certs += [c["verified"] for c in doc["certificates"]]
    return {
        "sup_error_max": max(sup_errors, default=0.0),
        "measure_min": min(measures, default=0.0),
        "certified_norm_max": max(certified, default=0.0),
        "verified_ratio": sum(certs) / len(certs) if certs else 0.0,
    }


def _top_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}


def _blas_threads() -> list:
    """(library, threads) for every OpenBLAS the process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "blochlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_backend": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_loaded": _blas_threads(),
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def child_setup(args, out: str) -> tuple:
    """Set up once more in a fresh process; returns (setup_s, warm-up op outcome)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["setup_s"], line["outcome"]


def tally(ops, passes, verdicts, warm_outcomes) -> tuple:
    """(attempted, failed, determinism mismatches) over every measured op.

    An op fails if it raised, exited nonzero, or its artifact fails verify.
    Every repeat of an op, the warm-up runs included, must reproduce the
    first pass's outcome exactly.
    """
    first = passes[0]["results"]
    failed_op = [res.status != 0 or verdict is False for res, verdict in zip(first, verdicts)]
    mismatches = {f"warm-up/{ops[0].label}" for o in warm_outcomes
                  if list(o) != list(first[0].outcome)}
    attempted = failed = 0
    for p in passes:
        for k, res in enumerate(p["results"]):
            attempted += 1
            failed += failed_op[k]
            if res.outcome != first[k].outcome:
                mismatches.add(f"pass/{ops[k].label}")
    return attempted, failed, sorted(mismatches)


def per_layer(passes, wall_s: float, fail_ratio: float, qual: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, plus trace accounting."""
    traced = [p for p in passes if p["traced"]]
    metrics = {name: _metric(statistics.median(p["layers"][name] for p in traced), _unit(name))
               for name in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - wall_s, "s")
    metrics["report.fail_ratio"] = _metric(fail_ratio, "ratio")
    for name, value in qual.items():
        metrics[f"report.{name}"] = _metric(value, _unit(name))
    return metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set up, run the warm-up op into DIR, print setup_s and exit")
    args = ap.parse_args(argv)

    for name in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[name] = str(BLAS_THREADS)
    if not os.path.isdir(os.path.join(SRC, "blochlab")):
        print(f"perfbench: no blochlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from blochlab import cli

    ops = workloads.build_ops(args.workload, args.seed)
    if args.setup_only:
        with contextlib.redirect_stdout(sys.stderr):
            warm = run_op(cli, ops[0], args.setup_only)
        print(json.dumps({"setup_s": time.perf_counter() - start, "outcome": warm.outcome}))
        return 0

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            warm = run_op(cli, ops[0], os.path.join(work, "warmup"))
            setup = [time.perf_counter() - start]
            warm_outcomes = [list(warm.outcome)]
            if not args.trace:
                for i in range(1, SETUP_REPEATS):
                    seconds, outcome = child_setup(args, os.path.join(work, f"setup{i}"))
                    setup.append(seconds)
                    warm_outcomes.append(outcome)
            passes = run_passes(cli, ops, work, args.seconds, bool(args.trace))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = passes[0]["results"]
            verdicts = verify_artifacts(cli, ops, first, work)
            qual = quality(ops, first, work)
            prov = provenance()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it

    attempted, failed, mismatches = tally(ops, passes, verdicts, warm_outcomes)
    untraced = [p["wall"] for p in passes if not p["traced"]]
    wall_s = statistics.median(untraced)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "wall_s": {"median": wall_s, "top": _top_percentile(untraced), "count": len(untraced),
                   "passes": [p["wall"] for p in passes]},
        "setup_s_samples": setup,
        "fail_ratio": failed / attempted,
        "quality": qual,
        "determinism_mismatches": mismatches,
        "ops": [{"label": op.label, "command": op.command, "seed": op.seed,
                 "status": res.status, "error": res.error, "verified": verdict,
                 "seconds_median": statistics.median(p["results"][k].seconds for p in passes)}
                for k, (op, res, verdict) in enumerate(zip(ops, first, verdicts))],
    }
    if args.trace:
        metrics = per_layer(passes, wall_s, failed / attempted, qual)
    else:
        metrics = {"wall_s": _metric(wall_s, "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mb": _metric(peak_rss_mb, "MB")}
    print(json.dumps(detail))
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("sup_error_max", "measure_min", "certified_norm_max")):
        return "1"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
