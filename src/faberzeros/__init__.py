"""Faber polynomials of level-one modular forms.

Exact q-series arithmetic over rationals, Faber polynomial extraction,
zeros of the truncated exponential, j-inversion into the fundamental
domain, and verification reports for the large-weight asymptotics.
Everything is a pure function over immutable values, so all of it is
safe to evaluate in parallel.
"""

from . import errors, faber, halfplane, modforms, qseries, roots
from .errors import *
from .faber import *
from .halfplane import *
from .modforms import *
from .qseries import *
from .roots import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + faber.__all__ + halfplane.__all__ + modforms.__all__
    + qseries.__all__ + roots.__all__ + ["__version__"]
)
