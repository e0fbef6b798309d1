"""Known-bad R006: a shard that aliases the shared coordinator.

The shard keeps a class-level reference to the shared coordinator and
pokes it from inside ``run_to``, so what one shard sees depends on which
sibling advanced before it.  The R006 rule must catch it statically
(exactly one finding, at the poke).
"""


class FederationCoordinator:
    def __init__(self):
        self.summaries = {}


class DomainShard:
    coordinator = None

    def __init__(self, domain):
        self.domain = domain
        self.clock = 0.0

    def run_to(self, target):
        self.clock = target
        DomainShard.coordinator.poked = self.domain  # the R006 violation
