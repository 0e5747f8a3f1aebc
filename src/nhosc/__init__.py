"""Truncated Fock-basis spectra of non-Hermitian quadratic oscillators.

Defines the sheared (non-Hermitian) coordinate and momentum of a truncated
oscillator basis as real tridiagonals, verifies commutator invariance
including the truncation defect, builds the general quadratic Hamiltonian
as a real banded matrix, and solves it to study where the real spectrum
develops conjugate pairs.
"""

from . import analysis, basis, eig, model
from .analysis import *  # noqa: F403
from .basis import *  # noqa: F403
from .eig import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *basis.__all__, *eig.__all__, *model.__all__]
