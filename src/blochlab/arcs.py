"""Finite unions of closed arcs on the unit circle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _wrap(theta):
    return np.mod(theta, TWO_PI)


@dataclass(frozen=True)
class ArcSet:
    """Disjoint closed arcs [start, end] on the circle, angles in radians.

    Stored normalized: each arc has 0 <= start < 2*pi and start < end <=
    start + 2*pi; arcs are sorted and non-overlapping.  An arc crossing
    angle 0 is kept as a single (start, end) pair with end > 2*pi.
    """

    arcs: tuple

    @classmethod
    def from_arcs(cls, arcs) -> "ArcSet":
        """Build from (start, end) pairs, merging overlaps."""
        cleaned = []
        for s, e in arcs:
            s, e = float(s), float(e)
            if not (math.isfinite(s) and math.isfinite(e)):
                raise ValueError(f"arc ({s}, {e}) has an endpoint that is not finite")
            if e < s:
                raise ValueError(f"arc end {e} precedes start {s}")
            if e - s >= TWO_PI:
                return cls(arcs=((0.0, TWO_PI),))
            w = e - s
            s = _wrap(s)
            cleaned.append((s, s + w))
        cleaned.sort()
        merged = []
        for s, e in cleaned:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        # merge a wrap-around tail into every head arc its wrapped end reaches
        while len(merged) >= 2 and merged[-1][1] >= TWO_PI and _wrap(merged[-1][1]) >= merged[0][0]:
            s0, e0 = merged.pop(0)
            s1, e1 = merged.pop()
            merged.append((s1, s1 + min(TWO_PI, (max(_wrap(e1), e0) + TWO_PI - s1))))
        return cls(arcs=tuple(merged))

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls(arcs=((0.0, TWO_PI),))

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(arcs=())

    @property
    def measure(self) -> float:
        """Normalized measure: total length / 2*pi."""
        return min(1.0, sum(e - s for s, e in self.arcs) / TWO_PI)

    def is_full(self) -> bool:
        return self.measure >= 1.0 - 1e-15

    def contains(self, theta) -> np.ndarray:
        """Pointwise membership for angles (radians), vectorized."""
        th = _wrap(np.asarray(theta, dtype=float))
        out = np.zeros(th.shape, dtype=bool)
        for s, e in self.arcs:
            out |= (th >= s) & (th <= e)
            if e > TWO_PI:  # wrap-around arc
                out |= th <= e - TWO_PI
        return out

    def contains_point(self, zeta) -> np.ndarray:
        return self.contains(np.angle(np.asarray(zeta, dtype=complex)))

    def sample(self, count: int) -> np.ndarray:
        """About ``count`` angles spread over the arcs proportionally to length."""
        if not self.arcs:
            return np.array([], dtype=float)
        total = sum(e - s for s, e in self.arcs)
        pieces = []
        for s, e in self.arcs:
            n = max(2, int(round(count * (e - s) / total)))
            # the whole circle's end point is its start point
            pieces.append(np.linspace(s, e, n, endpoint=e - s < TWO_PI))
        return _wrap(np.concatenate(pieces))

    def complement(self) -> "ArcSet":
        if not self.arcs:
            return ArcSet.full_circle()
        if self.is_full():
            return ArcSet.empty()
        gaps = []
        arcs = sorted((_wrap(s), _wrap(s) + (e - s)) for s, e in self.arcs)
        for (s0, e0), (s1, e1) in zip(arcs, arcs[1:]):
            if s1 > e0:
                gaps.append((e0, s1))
        # gap between last arc end and first arc start (through 0)
        last_e = arcs[-1][1]
        first_s = arcs[0][0] + TWO_PI
        if first_s > last_e:
            gaps.append((last_e, first_s))
        return ArcSet.from_arcs(gaps)

    def to_json(self) -> list:
        return [[s, e] for s, e in self.arcs]

    @classmethod
    def from_json(cls, data) -> "ArcSet":
        return cls.from_arcs([(s, e) for s, e in data])
