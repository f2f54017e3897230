"""Non-Markovian open-system dynamics from a lowest-order memory-kernel expansion.

The package propagates small quantum systems coupled to a structured
reservoir without the Markov approximation.  The reservoir enters only
through pair correlation functions of the coupling operators; the system
state is reconstructed from an effective propagator that solves a
Volterra integral equation in the time domain, or equivalently a
continued-fraction recursion in the Laplace domain.

Modules
-------
reservoir
    Spectral densities, correlation kernels, discrete mode expansions.
laplace
    Shifted one-sided transform and numerical contour inversion.
kraus
    Effective propagator solvers (time domain and Laplace domain).
dynamics
    Bitemporal state propagation, density-matrix extraction, audits.
jaynescummings
    Dressed-basis ladder, recursion over excitation levels, population
    series and plateau diagnostics.
cli
    Scenario runner producing CSV trajectories and machine-readable
    summaries.  The package does not import it, so that
    ``python -m nmkraus.cli`` runs it once.
"""

__version__ = "0.1.0"

from . import reservoir
from . import laplace
from . import kraus
from . import dynamics
from . import jaynescummings

__all__ = [
    "reservoir",
    "laplace",
    "kraus",
    "dynamics",
    "jaynescummings",
    "__version__",
]
