"""IP multicast substrate: group addressing, membership with IGMP-style
graft/leave latency, and source-based shortest-path distribution trees
(optionally protected by precomputed backup branches, see
:mod:`repro.multicast.builders`).
"""
