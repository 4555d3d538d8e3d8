"""Numerical laboratory for Bloch functions with wild boundary behaviour.

Builds explicit inner-function compositions and polynomials that realize
simultaneous Bloch-norm / boundary approximation, assembles them into
candidate universal series, and certifies every claim it can check
numerically.
"""

from blochlab.numerics import MeasureEstimate, sample_torus, measure_metric, indicator_measure
from blochlab.expressions import Polynomial1D, PolynomialND, PathSpec
from blochlab.inner import SingularMeasureSpec, InnerSpec
from blochlab.arcs import ArcSet
from blochlab.blochnorm import BlochReport, WeightSpec, bloch_norm, weight_integral_test
from blochlab.approximation import runge_pair, uniform_fit, product_decompose
from blochlab.pipeline import SimulApproxResult, simul_approx_disc, simul_approx_polydisc
from blochlab.universality import TargetEnumeration, Certificate, UniversalCandidate, certify, universal_build, cluster_probe, lacunary_baseline

__version__ = "0.1.0"

__all__ = [
    "MeasureEstimate",
    "sample_torus",
    "measure_metric",
    "indicator_measure",
    "Polynomial1D",
    "PolynomialND",
    "PathSpec",
    "SingularMeasureSpec",
    "InnerSpec",
    "ArcSet",
    "BlochReport",
    "WeightSpec",
    "bloch_norm",
    "weight_integral_test",
    "runge_pair",
    "uniform_fit",
    "product_decompose",
    "SimulApproxResult",
    "simul_approx_disc",
    "simul_approx_polydisc",
    "TargetEnumeration",
    "Certificate",
    "UniversalCandidate",
    "certify",
    "universal_build",
    "cluster_probe",
    "lacunary_baseline",
]
