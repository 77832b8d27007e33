"""Exact computations with matrix algebras over the rationals.

Finitely generated unital matrix algebras, nonnegative and positive
generating systems up to similarity, incidence algebras, semi-commuting
generator pairs, and machine-verifiable certificates for all of it.

The package exports modules, not names (`from algforge.algebra import
generate`), and importing it loads none of them.
"""

__version__ = "0.1.0"
