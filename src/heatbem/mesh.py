"""Space-time boundary meshes on the two lateral sides {a, b} x (0, T).

A mesh is two sorted breakpoint arrays, one per side; elements are the
consecutive intervals.  Storing breakpoints (rather than element tuples) makes
the partition property structural: elements can never overlap or leave gaps,
and refinement by midpoint bisection never moves existing nodes.

Element indexing is stable: all left-side elements in increasing time first,
then all right-side elements in increasing time.  This fixes matrix layout;
any other consistent order would give permutation-similar matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Side",
    "BoundaryMesh",
    "uniform_mesh",
    "refine_uniform",
    "refine_adaptive",
    "quasi_uniformity_constant",
    "element_lines",
    "dumps",
    "loads",
]


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


def _check_breaks(breaks: np.ndarray, horizon: float, side: str) -> None:
    if breaks.ndim != 1 or len(breaks) < 2:
        raise ValueError(f"{side} side needs at least one element")
    if breaks[0] != 0.0 or breaks[-1] != horizon:
        raise ValueError(f"{side} breakpoints must span [0, {horizon}] exactly")
    if np.any(np.diff(breaks) <= 0.0):
        raise ValueError(f"{side} breakpoints must be strictly increasing")


@dataclass(frozen=True, eq=False)
class BoundaryMesh:
    """Decomposition of {a, b} x (0, T) into boundary elements."""

    horizon: float
    interval: tuple[float, float]
    left_breaks: np.ndarray
    right_breaks: np.ndarray
    level: int = 0

    def __post_init__(self) -> None:
        a, b = self.interval
        if not (a < b and self.horizon > 0.0):
            raise ValueError("need a < b and T > 0")
        object.__setattr__(self, "left_breaks", np.asarray(self.left_breaks, float))
        object.__setattr__(self, "right_breaks", np.asarray(self.right_breaks, float))
        _check_breaks(self.left_breaks, self.horizon, "left")
        _check_breaks(self.right_breaks, self.horizon, "right")

    @property
    def n_left(self) -> int:
        return len(self.left_breaks) - 1

    @property
    def n_right(self) -> int:
        return len(self.right_breaks) - 1

    @property
    def n_elements(self) -> int:
        return self.n_left + self.n_right

    @cached_property
    def t_begin_all(self) -> np.ndarray:
        return np.concatenate([self.left_breaks[:-1], self.right_breaks[:-1]])

    @cached_property
    def t_end_all(self) -> np.ndarray:
        return np.concatenate([self.left_breaks[1:], self.right_breaks[1:]])

    @cached_property
    def element_sizes(self) -> np.ndarray:
        return self.t_end_all - self.t_begin_all

    @cached_property
    def x_all(self) -> np.ndarray:
        a, b = self.interval
        return np.concatenate(
            [np.full(self.n_left, a), np.full(self.n_right, b)]
        )

    @cached_property
    def normal_all(self) -> np.ndarray:
        return np.concatenate(
            [np.full(self.n_left, -1.0), np.full(self.n_right, 1.0)]
        )

    @property
    def h_min(self) -> float:
        return float(self.element_sizes.min())

    @cached_property
    def mirror(self) -> bool:
        """Both sides share one grid: V, K, D and the mass are [[P, Q], [Q, P]] bitwise."""
        return bool(np.array_equal(self.left_breaks, self.right_breaks))

    @cached_property
    def slabs(self) -> list[np.ndarray]:
        """Sorted element indices per window between consecutive shared breakpoints."""
        shared = np.intersect1d(self.left_breaks, self.right_breaks)
        left = np.searchsorted(self.left_breaks, shared)
        right = self.n_left + np.searchsorted(self.right_breaks, shared)
        return [np.r_[a:b, c:d] for a, b, c, d in zip(left, left[1:], right, right[1:])]


def uniform_mesh(
    horizon: float, level: int, interval: tuple[float, float] = (0.0, 1.0)
) -> BoundaryMesh:
    """Uniform mesh with 2**level elements per side (N = 2**(level+1) total).

    Built by repeated midpoint bisection of [0, T] so that refine_uniform of a
    coarser uniform mesh reproduces this one bitwise.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    breaks = np.array([0.0, float(horizon)])
    for _ in range(level):
        breaks = _bisect(breaks, np.arange(len(breaks) - 1))
    return BoundaryMesh(
        horizon=float(horizon),
        interval=(float(interval[0]), float(interval[1])),
        left_breaks=breaks,
        right_breaks=breaks.copy(),
        level=level,
    )


def _bisect(breaks: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Insert the midpoint of each marked interval (sorted indices)."""
    return np.insert(breaks, marked + 1, 0.5 * (breaks[marked] + breaks[marked + 1]))


def refine_uniform(mesh: BoundaryMesh) -> BoundaryMesh:
    """Bisect every element; N doubles, existing nodes are kept bitwise."""
    return BoundaryMesh(
        horizon=mesh.horizon,
        interval=mesh.interval,
        left_breaks=_bisect(mesh.left_breaks, np.arange(mesh.n_left)),
        right_breaks=_bisect(mesh.right_breaks, np.arange(mesh.n_right)),
        level=mesh.level + 1,
    )


def refine_adaptive(
    mesh: BoundaryMesh, indicators, theta: float = 0.5
) -> BoundaryMesh:
    """Maximum-strategy marking: bisect every element with eta >= theta * max(eta).

    All-zero indicators refine the single largest element so the refinement
    loop always makes progress.
    """
    eta = np.asarray(indicators, dtype=float)
    if eta.shape != (mesh.n_elements,):
        raise ValueError(
            f"need one indicator per element ({mesh.n_elements}), got shape {eta.shape}"
        )
    if not np.all(np.isfinite(eta)):
        raise ValueError("indicators must be finite")
    if np.any(eta < 0.0):
        raise ValueError("indicators must be nonnegative")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0, 1]")

    eta_max = eta.max()
    if eta_max == 0.0:
        marked = np.argmax(mesh.element_sizes, keepdims=True)
    else:
        marked = np.flatnonzero(eta >= theta * eta_max)
    nl = mesh.n_left
    return BoundaryMesh(
        horizon=mesh.horizon,
        interval=mesh.interval,
        left_breaks=_bisect(mesh.left_breaks, marked[marked < nl]),
        right_breaks=_bisect(mesh.right_breaks, marked[marked >= nl] - nl),
        level=mesh.level + 1,
    )


def quasi_uniformity_constant(mesh: BoundaryMesh) -> float:
    """Largest size ratio between node-sharing neighbours on the same side.

    Sides are geometrically disconnected, so adjacency never crosses sides.
    A single-element side contributes the neutral ratio 1.
    """
    worst = 1.0
    for breaks in (mesh.left_breaks, mesh.right_breaks):
        sizes = np.diff(breaks)
        if len(sizes) < 2:
            continue
        ratios = sizes[1:] / sizes[:-1]
        worst = max(worst, float(np.max(ratios)), float(np.max(1.0 / ratios)))
    return worst


def element_lines(mesh: BoundaryMesh):
    """Yield one line per element, without its newline: ``side t_begin t_end`` with 17
    significant digits, in element order.

    Each breakpoint is formatted once (an element's end is the next one's begin) and
    each side's tag is looked up once; no line is kept after it is yielded.
    """
    for side, breaks in ((Side.LEFT, mesh.left_breaks), (Side.RIGHT, mesh.right_breaks)):
        tag, values = side.value, iter(breaks.tolist())
        t0 = f"{next(values):.17g}"
        for t in values:
            t1 = f"{t:.17g}"
            yield f"{tag} {t0} {t1}"
            t0 = t1


def dumps(mesh: BoundaryMesh) -> str:
    """The mesh as text: the ``element_lines``, each ended by a newline."""
    return "".join(f"{line}\n" for line in element_lines(mesh))


def loads(text: str, level: int = 0) -> BoundaryMesh:
    """Parse the ``dumps`` format back into a mesh on the interval (0, 1)."""
    per_side: dict[str, list[tuple[float, float]]] = {"L": [], "R": []}
    for tag, t0, t1 in (line.split() for line in text.splitlines() if line.strip()):
        if tag not in per_side:
            raise ValueError(f"unknown side tag {tag!r}")
        per_side[tag].append((float(t0), float(t1)))
    breaks = {}
    horizon = 0.0
    for tag, elems in per_side.items():
        elems.sort()
        if not elems:
            raise ValueError(f"side {tag} has no elements")
        pts = [elems[0][0]]
        for t0, t1 in elems:
            if t0 != pts[-1]:
                raise ValueError(f"side {tag} elements do not tile: gap at {t0}")
            pts.append(t1)
        breaks[tag] = np.array(pts)
        horizon = max(horizon, pts[-1])
    return BoundaryMesh(
        horizon=horizon,
        interval=(0.0, 1.0),
        left_breaks=breaks["L"],
        right_breaks=breaks["R"],
        level=level,
    )
