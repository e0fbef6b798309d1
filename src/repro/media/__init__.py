"""Layered streaming-media model: advertised layer schedule, CBR/VBR layered
sources, and loss-tracking layered receivers (the paper's hierarchical
source model, §IV).
"""
