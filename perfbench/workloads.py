"""The operations one pass of each workload runs.

An operation ("op") is one blochlab scenario: a CLI subcommand, its JSON
config and a seed, exactly what ``blochlab.cli.run_scenario`` takes.  Op
seeds are derived from the workload seed, so one workload seed always
gives the same op list; the program only ever sees the generated configs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Per-op sample count of the Cantor quotient draws, and how many Cantor
# draws one pass makes.  A draw's cost depends on how many of its points
# need one-at-a-time refinement (and on whether the quadrature gives up
# part-way), which varies with the seed by about 12%; 24 draws per pass
# keep the pass time within a few percent across seeds.
CANTOR_SAMPLES = 2000
CANTOR_DRAWS = 24

DISC_EPS = 0.5
# criterion 8: budgets per target and the anchor list of T_n^w
UNIVERSAL_EPS = [0.4, 0.3, 0.25]
UNIVERSAL_ANCHORS = [[0.0, 0.0], [0.3, 0.0], [0.0, -0.3]]


@dataclass(frozen=True)
class Op:
    label: str
    command: str
    config: dict
    seed: int


def _cpx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _atomic(atoms) -> dict:
    return {"kind": "inner", "inner_kind": "singular",
            "measure": {"kind": "measure", "measure_kind": "atomic",
                        "atoms": [[_cpx(z), float(m)] for z, m in atoms]}}


def _blaschke(zeros) -> dict:
    return {"kind": "inner", "inner_kind": "blaschke",
            "zeros": [_cpx(a) for a in zeros]}


def _composition(*chain) -> dict:
    return {"kind": "inner", "inner_kind": "composition", "chain": list(chain)}


# depth-16 Cantor measure of mass 1 on the quarter arc centered at 1
CANTOR = {"kind": "inner", "inner_kind": "singular",
          "measure": {"kind": "measure", "measure_kind": "cantor",
                      "center": [1.0, 0.0], "arc_length": math.pi / 2,
                      "ratio": 1.0 / 3.0, "depth": 16, "mass": 1.0}}

# the ten inner functions of acceptance criterion 1, in its order
CRITERION1_SPECS = [
    ("atomic-1", _atomic([(1.0, 0.5)])),
    ("atomic-2", _atomic([(1j, 0.3), (-1j, 0.4)])),
    ("atomic-3", _atomic([(complex(math.cos(0.7), math.sin(0.7)), 1.2)])),
    ("cantor", CANTOR),
    ("blaschke-1", _blaschke([0.3 + 0.2j])),
    ("blaschke-3", _blaschke([0.0, 0.5, -0.2j])),
    ("comp-atomic-blaschke", _composition(_atomic([(1.0, 0.4)]), _blaschke([0.2]))),
    ("comp-blaschke-atomic", _composition(_blaschke([0.1 + 0.1j]), _atomic([(-1.0, 0.6)]))),
    ("comp-atomic-atomic", _composition(_atomic([(1j, 0.2)]), _atomic([(-1j, 0.2)]))),
    ("blaschke-2", _blaschke([0.4 + 0.4j, -0.4 - 0.4j])),
]


def _cantor_quotient():
    # The Cantor spec leads, so the warm-up op (op 0) fills the node cache.
    specs = [(f"cantor-{k}", CANTOR) for k in range(1, CANTOR_DRAWS)]
    specs += CRITERION1_SPECS
    return [(label, "inner-quotient", {"inner": spec, "samples": CANTOR_SAMPLES})
            for label, spec in specs]


def _disc_lemma():
    # the three criterion-6 targets on the CLI default weak base (one atom
    # of mass 0.02), plus Re z on a contracting two-atom base, whose shrink
    # builds a 16-link chain that the truncation then evaluates.  Re z, the
    # cheapest, leads: it is the warm-up op that every set-up repeats.
    step = {"kind": "step", "jumps": [0.37, 2.77], "values": [0.0, 1.0]}
    return [
        ("re", "simul", {"target": {"kind": "re"}, "eps": DISC_EPS}),
        ("const", "simul", {"target": {"kind": "constant", "value": 1.0}, "eps": DISC_EPS}),
        ("step", "simul", {"target": step, "eps": DISC_EPS}),
        ("re-two-atom", "simul", {"target": {"kind": "re"}, "eps": DISC_EPS,
                                  "inner": _atomic([(1j, 0.3), (-1j, 0.4)])}),
    ]


def _polydisc_n2():
    return [("product-re", "simul",
             {"target": {"kind": "product_re"}, "eps": DISC_EPS, "dim": 2})]


def _universal_enum():
    common = {"anchors": UNIVERSAL_ANCHORS, "eps_schedule": UNIVERSAL_EPS, "n_max": 20}
    criterion8 = [{"kind": "constant", "value": 0.0},
                  {"kind": "constant", "value": 1.0},
                  {"kind": "monomial", "n": 1}]
    return [("enumerate-8", "universal", {"enumerate": 8, **common}),
            ("criterion-8", "universal", {"targets": criterion8, **common})]


WORKLOADS = {
    "cantor_quotient": _cantor_quotient,
    "disc_lemma": _disc_lemma,
    "polydisc_n2": _polydisc_n2,
    "universal_enum": _universal_enum,
}


def build_ops(workload: str, seed: int) -> list:
    """The op list of one pass of ``workload`` for workload seed ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return [Op(label, command, config, rng.randrange(2 ** 31))
            for label, command, config in WORKLOADS[workload]()]
