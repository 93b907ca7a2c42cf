"""Deterministic simulator for gradient-clustered federated graph classification."""

__version__ = "0.1.0"
