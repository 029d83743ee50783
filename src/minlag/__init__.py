"""Numerical tools for minimal Lagrangian surface immersions in CH^2.

Solves the structure equation Delta u + 2 - 2 e^u - 16 t^2 ||q||^2 e^{-2u} = 0
on discrete conformal surfaces, traces the stable solution branch to its fold,
computes mountain-pass second solutions, reconstructs SU(2,1) frames, and
verifies the Weil-Petersson potential identities of the induced-area
functional.
"""
