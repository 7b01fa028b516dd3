"""Stochastic error models (Section 6.1 of the paper).

The paper uses the *phenomenological* noise model: every decode cycle, each
data qubit suffers an error with probability ``p`` and each syndrome
measurement is flipped with the same probability ``p``.  X-type and Z-type
errors are decoded independently so a single binary error species is
simulated at a time.
"""

from repro.noise.events import vector_to_errors
from repro.noise.models import (
    CodeCapacityNoise,
    NoiseModel,
    PhenomenologicalNoise,
)
from repro.noise.rng import make_rng, point_seed, spawn_rngs

__all__ = [
    "vector_to_errors",
    "NoiseModel",
    "PhenomenologicalNoise",
    "CodeCapacityNoise",
    "make_rng",
    "point_seed",
    "spawn_rngs",
]
