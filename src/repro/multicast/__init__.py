"""IP multicast substrate: group addressing, membership with IGMP-style
graft/leave latency, and source-based shortest-path distribution trees
(:mod:`repro.multicast.builders`), rebuilt when the topology changes.
"""
