"""Combination-therapy schedule optimization for a stochastic
tumor-immune model, via density-constrained open-loop control."""

__version__ = "0.1.0"
