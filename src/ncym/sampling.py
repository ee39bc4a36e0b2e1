"""Seeded random draws of thetas and torus elements: random connections and test oracles.

All randomness flows through numpy's PCG64 generator seeded from an explicit
integer.  Nothing in the library calls ``spawn``; it stays only because the
benchmark's tracer in ``perfbench/`` wraps it, until that tracer stops
naming it (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

from .torus import ThetaMatrix, TorusElement


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn(seed: int, count: int):
    """Independent child generators for parallel/sequential sub-draws."""
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(count)]


def random_theta(n: int, gen: np.random.Generator, scale: float = 1.0) -> ThetaMatrix:
    rows = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            v = float(gen.uniform(-scale, scale))
            rows[j][k] = v
            rows[k][j] = -v
    return ThetaMatrix(rows)


def random_element(
    theta: ThetaMatrix,
    gen: np.random.Generator,
    radius: int = 2,
    terms: int = 5,
    amplitude: float = 1.0,
) -> TorusElement:
    """Sparse random element with support inside the box |r|_inf <= radius."""
    coeffs = {}
    for _ in range(terms):
        r = tuple(int(x) for x in gen.integers(-radius, radius + 1, size=theta.n))
        c = complex(gen.normal(), gen.normal()) * amplitude
        coeffs[r] = coeffs.get(r, 0j) + c
    return TorusElement(theta, coeffs)


def random_vector(theta, q, gen, radius=1, terms=3, amplitude=1.0):
    return [random_element(theta, gen, radius, terms, amplitude) for _ in range(q)]
