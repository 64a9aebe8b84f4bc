"""Federated edge learning over a shared broadband channel.

Simulates and analyzes over-the-air analog model aggregation against its
digital OFDMA baseline: closed-form tradeoff curves, Monte Carlo topology
validation, physical-layer round simulation, a desk-scale federated
training loop, and spread-spectrum/beamforming hardening extensions.
"""

__version__ = "0.1.0"
