"""Decoherence and geometric phase of a qubit in a random-phase bath.

A dephasing qubit couples to a set of bath modes whose phases diffuse
in time.  This package computes the resulting decoherence factor
(closed forms where they exist, adaptive quadrature elsewhere),
validates it against a trajectory-sampling oracle, and propagates the
loss of coherence into the non-unitary geometric phase of a
quasi-cyclic evolution.  Each module's ``__all__`` is the one list of
what it exports; the package re-exports those names as they are.
"""

from .bath import *
from .dephasing import *
from .geomphase import *
from .montecarlo import *
from .numerics import *

__version__ = "0.1.0"
