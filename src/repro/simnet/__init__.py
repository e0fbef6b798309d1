"""Discrete-event network simulator substrate.

This package replaces ns-2 (which the paper used) with a pure-Python
equivalent: a deterministic event scheduler (:mod:`~repro.simnet.engine`),
store-and-forward links with drop-tail queues (:mod:`~repro.simnet.link`,
:mod:`~repro.simnet.queues`), forwarding nodes (:mod:`~repro.simnet.node`),
and topology/routing helpers (:mod:`~repro.simnet.topology`).
"""
