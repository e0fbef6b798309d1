"""Experiment scaffolding: scenario assembly, the paper's topologies, and
per-figure experiment drivers."""
