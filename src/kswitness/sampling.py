"""Deterministic sampling helpers.

Sphere samples use the R2 low-discrepancy (Kronecker) sequence with a
seed-derived offset rather than i.i.d. draws, so that bounded searches fail
(and succeed) reproducibly for a given seed.
"""

from __future__ import annotations

import numpy as np

# Plastic-constant parameters of the two-dimensional R2 sequence.
_PLASTIC = 1.32471795724474602596
_ALPHA = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])


def unit_square_sequence(count: int, seed: int) -> np.ndarray:
    """``count`` points of the seeded R2 sequence in [0, 1)^2."""
    rng = np.random.default_rng(seed)
    offset = rng.random(2)
    idx = np.arange(1, count + 1, dtype=float)[:, None]
    return (offset + idx * _ALPHA) % 1.0


def sphere_sequence(count: int, seed: int) -> np.ndarray:
    """Low-discrepancy points on S^2 (area-uniform), shape (count, 3)."""
    uv = unit_square_sequence(count, seed)
    z = 2.0 * uv[:, 0] - 1.0
    phi = 2.0 * np.pi * uv[:, 1]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def random_rotation(seed: int) -> np.ndarray:
    """A seed-determined proper rotation of R^3 (QR of a Gaussian matrix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
