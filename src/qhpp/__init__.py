"""Exact-rational toolkit for Q-homology projective plane computations.

Hirzebruch-Jung continued fractions, cyclic-quotient-singularity invariants,
discriminant and orbifold-BMY filters, curve-class Diophantine obstructions,
and the exhaustive candidate-enumeration pipelines built from them.
"""

from . import hjcf, obstruction, ratio, surface
from .hjcf import *
from .obstruction import *
from .ratio import *
from .surface import *

__version__ = "1.0.0"

__all__ = hjcf.__all__ + obstruction.__all__ + ratio.__all__ + surface.__all__
