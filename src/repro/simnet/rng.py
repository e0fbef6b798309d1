"""Seeded random-number management.

Every stochastic component in the simulator (VBR traffic draws, TopoSense
backoff intervals, report jitter, ...) receives its own independent
``numpy.random.Generator`` forked from a single experiment seed.  Forking by
*name* rather than by creation order means adding a new random component does
not perturb the draws seen by existing ones, which keeps regression baselines
stable.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

__all__ = ["RngRegistry", "stream_seed", "zipf_weights"]


def stream_seed(seed: int, name: str) -> int:
    """The integer seed of stream ``name`` under experiment ``seed``.

    BLAKE2 over ``"<seed>:<name>"``: distinct names give statistically
    independent streams, and a stream's seed depends on nothing but its own
    name — adding a stream (or a federation domain) never perturbs another.
    """
    digest = hashlib.blake2b(
        f"{int(seed)}:{name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf(``s``) weights over ranks ``1..n`` (index order).

    Rank ``k`` (0-based index) gets mass proportional to ``1/(k+1)**s`` —
    the first few entries dominate, modelling popularity skew.  Lives here,
    below both its users (:mod:`repro.experiments.membership` and
    :mod:`repro.workloads.builders`), so neither package imports the other
    for it.
    """
    if n < 1:
        raise ValueError("need at least one rank for Zipf weights")
    if s <= 0:
        raise ValueError("zipf_s must be positive")
    weights = np.array([1.0 / (k + 1) ** s for k in range(n)])
    weights /= weights.sum()
    return weights


class RngRegistry:
    """Registry of named, independently seeded random generators.

    Example
    -------
    >>> reg = RngRegistry(seed=42)
    >>> a = reg.fork("vbr/source0")
    >>> b = reg.fork("backoff")
    >>> a is reg.fork("vbr/source0")
    True
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = 0 if seed is None else int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def fork(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The stream is seeded with :func:`stream_seed`, so the same name
        always yields the same stream for a given experiment seed.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(stream_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def names(self):
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)
