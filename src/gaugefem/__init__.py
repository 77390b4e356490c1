"""Gauge-invariant finite elements for magnetic Schrodinger and Pauli
eigenvalue problems on simplicial meshes.

The discretization attaches parallel transports U_ij = exp(i A_ij) to mesh
edges, with A_ij the circulation of the vector potential.  Mass and
stiffness forms built from these link variables commute exactly with
discrete gauge transformations, so computed spectra are gauge invariant to
solver precision while retaining second-order eigenvalue convergence.
"""

from . import mesh, gauge, assembly, eigensolve, pauli
from .mesh import *
from .gauge import *
from .assembly import *
from .eigensolve import *
from .pauli import *

__version__ = "0.1.0"

__all__ = [*mesh.__all__, *gauge.__all__, *assembly.__all__, *eigensolve.__all__,
           *pauli.__all__, "__version__"]
