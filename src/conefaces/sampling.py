"""Seeded random point configurations with exact acceptance predicates."""

from __future__ import annotations

import math
import random

from .ideal_components import PointConfiguration
from .independence import independence_verdict, is_general_linear_position
from .polynomials import ProjectivePoint

# coordinates are drawn uniformly from [-COORD_BOUND, COORD_BOUND]
COORD_BOUND = 50
# budget of rejected configurations, and of rejected point draws within one
MAX_REJECTS = 1000


def random_configuration(n: int, size: int, seed: int = 0, glp: bool = False,
                         d_independent: int | None = None) -> PointConfiguration:
    """Integer-coordinate points, rejection-resampled until all exact
    predicates hold; deterministic given the seed.

    Generic configurations of size up to binomial(n+d-1, d) - n are
    d-independent, so rejection terminates almost immediately in practice.
    MAX_REJECTS bounds the rejected configurations, and within each the
    zero or repeated point draws; past either budget, ValueError.
    """
    if d_independent is not None:
        limit = math.comb(n + d_independent - 1, d_independent) - n
        if size > limit:
            raise ValueError(
                f"no {d_independent}-independent set of {size} points exists in "
                f"{n} variables (maximum {limit})"
            )
    rng = random.Random(seed)
    for _ in range(MAX_REJECTS):
        points = []
        seen = set()
        rejects = 0
        while len(points) < size:
            coords = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(n))
            if any(coords):
                p = ProjectivePoint(coords)
                key = p.canonical()
                if key not in seen:
                    seen.add(key)
                    points.append(p)
                    continue
            rejects += 1
            if rejects > MAX_REJECTS:
                raise ValueError(
                    f"could not draw {size} distinct projective points in {n} "
                    f"variables with coordinates in [-{COORD_BOUND}, {COORD_BOUND}]"
                )
        g = PointConfiguration(n, tuple(points))
        if glp and not is_general_linear_position(g):
            continue
        if d_independent is not None and independence_verdict(g, d_independent) != "yes":
            continue
        return g
    raise ValueError("rejection sampling failed; the requirement may be unattainable")
