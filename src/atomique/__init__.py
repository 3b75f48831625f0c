"""Compiler and fidelity estimator for reconfigurable neutral-atom arrays."""
