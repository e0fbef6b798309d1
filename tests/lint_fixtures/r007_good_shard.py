"""Known-good R007: a well-behaved shard.

Randomness is forked from the registry, every construction derives its
seed from the caller's (also the per-iteration one inside the loop), and
generators are passed down through parameters.  Zero findings.
"""

from numpy.random import default_rng


class RngRegistry:
    def __init__(self, seed):
        self.seed = seed

    def fork(self, name):
        return default_rng([self.seed, len(name)])


def advance(state, rng):
    state["clock"] += rng.random()


class DomainShard:
    def __init__(self, domain, seed):
        self.domain = domain
        self.registry = RngRegistry(seed)
        self.rng = self.registry.fork("shard")
        self.link_rngs = []
        for i in range(2):
            self.link_rngs.append(default_rng(seed + i))
        self.state = {"clock": 0.0}

    def run_to(self, target):
        while self.state["clock"] < target:
            advance(self.state, self.rng)
