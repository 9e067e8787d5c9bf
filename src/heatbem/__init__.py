"""Space-time boundary element method for the 1D heat equation.

Galerkin discretization of the first-kind single layer equation with
piecewise constant basis functions on the lateral boundary {a, b} x (0, T),
an opposite-order (hypersingular) operator preconditioner, GMRES, and the
convergence/conditioning study drivers.
"""

__version__ = "0.1.0"
