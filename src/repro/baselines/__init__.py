"""Baselines: the oracle optimum, a static controller, and a topology-blind
receiver-driven (RLM-style) adapter."""
