"""Controller-agent architecture: session descriptors, wire messages,
topology discovery (with staleness), the controller/receiver agents, and the
report-validation/quarantine guard.
"""
