"""The best approximation of a reference flux in the discrete space S_h^0."""

from __future__ import annotations

from .analysis import element_means
from .mesh import BoundaryMesh

__all__ = ["best_approximation"]


def best_approximation(mesh: BoundaryMesh, reference):
    """Element means of the reference flux: the L2(Sigma)-projection onto S_h^0."""
    return element_means(mesh, reference.flux, gauss_order=30)
