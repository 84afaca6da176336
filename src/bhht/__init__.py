"""Exact equivariant Euler characteristics and Saito duality for invertible polynomials.

The package exports nothing at top level; import from its submodules.
"""

__version__ = "0.1.0"
