"""Known-bad R006: shared write two frames below a shard entry point.

``DomainShard.run_to`` → ``_collect`` → ``_record`` — and ``_record``
appends to a module-level list.  Every shard would write the same
``EVENTS``; the interprocedural pass must follow the call chain and flag
the write (exactly one finding, at the append).
"""

EVENTS = []


def _record(item):
    EVENTS.append(item)  # the R006 violation: module-global mutation


def _collect(shard, item):
    _record((shard.domain, item))


class DomainShard:
    def __init__(self, domain):
        self.domain = domain
        self.clock = 0.0

    def run_to(self, target):
        while self.clock < target:
            self.clock += 1.0
            _collect(self, self.clock)
