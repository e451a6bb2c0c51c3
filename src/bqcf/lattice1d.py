"""Periodic 1D chain: geometry, difference operators, norms.

Sites are indexed l = -N+1, ..., N (2N sites) with spacing eps = 1/N, so the
chain covers one period of length 2. Site l lives at array position
(l + N - 1) mod 2N; all stencils wrap periodically. Displacements are plain
float arrays of length 2N; the zero-mean constraint of the admissible space
is imposed by explicit projection where an operation needs it, never by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelRangeError

__all__ = ["Chain1D", "diff", "diffs", "inner", "norms", "project_zero_mean",
           "random_zero_mean", "roll"]


@dataclass(frozen=True)
class Chain1D:
    """Periodic chain with 2N sites and lattice spacing eps = 1/N."""

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ModelRangeError("N must be a positive integer")

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    @property
    def nsites(self) -> int:
        return 2 * self.N

    def pos(self, ell: int) -> int:
        """Array position of site index l (wraps modulo 2N)."""
        return (ell + self.N - 1) % (2 * self.N)


def roll(v: np.ndarray, k: int) -> np.ndarray:
    """np.roll(v, k) of a nonempty 1D array, by slicing: roll(v, k)_l =
    v_{l-k} with periodic wrapping. np.roll's generic axis handling costs
    several times the copy at the sizes the chain uses."""
    cut = v.size - k % v.size
    return np.concatenate((v[cut:], v[:cut]))


def diff(chain: Chain1D, u: np.ndarray, order: int = 1) -> np.ndarray:
    """Backward difference ladder.

    (Du)_l = (u_l - u_{l-1})/eps, D2u_l = (Du_{l+1} - Du_l)/eps,
    D3u_l = (D2u_l - D2u_{l-1})/eps, all with periodic wrapping.
    """
    return diffs(chain, u, order)[-1]


def diffs(chain: Chain1D, u: np.ndarray, order: int = 3) -> tuple:
    """(Du, ..., D^order u) of diff's ladder, each rung built once."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    u = np.asarray(u, dtype=float)
    if u.shape != (chain.nsites,):
        raise ValueError(f"expected {chain.nsites} values, got shape {u.shape}")
    d = (u - roll(u, 1)) / chain.eps
    ladder = [d]
    if order >= 2:
        ladder.append((roll(d, -1) - d) / chain.eps)
    if order >= 3:
        ladder.append((ladder[1] - roll(ladder[1], 1)) / chain.eps)
    return tuple(ladder)


def norms(chain: Chain1D, v: np.ndarray) -> dict:
    """Discrete norms of a site field: l2eps = (eps sum v^2)^(1/2), linf, l1eps."""
    v = np.asarray(v, dtype=float)
    return {
        "l2eps": float(np.sqrt(chain.eps * np.sum(v * v))),
        "linf": float(np.max(np.abs(v))) if v.size else 0.0,
        "l1eps": float(chain.eps * np.sum(np.abs(v))),
    }


def inner(chain: Chain1D, u: np.ndarray, w: np.ndarray) -> float:
    """Weighted inner product eps * sum u_l w_l."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {w.shape}")
    return float(chain.eps * np.dot(u, w))


def project_zero_mean(u: np.ndarray) -> np.ndarray:
    """Project onto the admissible (zero site-mean) displacement space."""
    u = np.asarray(u, dtype=float)
    return u - u.mean()


def random_zero_mean(chain: Chain1D, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal displacement projected to zero mean. Test helper."""
    return project_zero_mean(rng.standard_normal(chain.nsites))
