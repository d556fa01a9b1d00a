"""Point sets in the half-open unit cube [0, 1)^d.

Coordinates are stored row-major: point ``j`` is ``coords[j]``.  The
half-open convention matches the anchored counting boxes [0, t) used by
the discrepancy modules, so a coordinate equal to 1.0 is rejected on
construction and on load.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# First 16 primes: Halton bases for up to 16 axes.
_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# The types check_real takes, and the largest int it turns into a float.
_REALS = (int, float, np.integer, np.floating)
_DOUBLE_MAX = sys.float_info.max


@dataclass(frozen=True)
class PointSet:
    """Immutable array of n_points points in [0, 1)^dim."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError("coords must have shape (n_points, dim)")
        if arr.shape[1] < 1:
            raise ValueError("dim must be at least 1")
        if arr.size:
            if not np.isfinite(arr).all():
                raise ValueError("coordinates must be finite")
            if (arr < 0.0).any() or (arr >= 1.0).any():
                raise ValueError("coordinates must lie in the half-open cube [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def check_int(n, name: str, lo: int, hi: int | None = None) -> int:
    """``n`` as a Python int if it is an integer in [lo, hi], else a
    ValueError that calls it ``name``.  A bool is no integer, nor is a
    float of integer value; ``hi=None`` leaves it unbounded above."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if hi is not None and not lo <= n <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {n!r}")
    if n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n!r}")
    return int(n)


def check_real(x, name: str, lo: float = -math.inf, hi: float = math.inf,
               ends: str = "()") -> float:
    """``x`` as a float if it is a real number between ``lo`` and ``hi``,
    each end open or closed as ``ends`` ("()", "[)", "(]" or "[]") says,
    else a ValueError that calls it ``name``.  A bool is no real number,
    nor is a string, nor an int beyond a double."""
    if (isinstance(x, _REALS) and not isinstance(x, bool)
            and (lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)
            and (type(x) is not int or -_DOUBLE_MAX <= x <= _DOUBLE_MAX)):
        return float(x)
    if hi == math.inf and ends[1] == ")":
        bound = "" if lo == -math.inf else f" {'>' if ends[0] == '(' else '>='} {lo:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {x!r}")
    raise ValueError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {x!r}")


def empty_pointset(dim: int) -> PointSet:
    """The N = 0 point set in dimension ``dim``."""
    return PointSet(np.empty((0, check_int(dim, "dim", 1))))


def generate_uniform(n: int, dim: int, seed: int) -> PointSet:
    """n i.i.d. uniform points from a fixed 64-bit generator (PCG64).

    The same (n, dim, seed) always yields bit-identical coordinates, so
    seeded fixtures are reproducible across runs and platforms.
    """
    n, dim = check_int(n, "n", 0), check_int(dim, "dim", 1)
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed", 0)))
    return PointSet(rng.random((n, dim)))


def generate_halton(n: int, dim: int) -> PointSet:
    """First n Halton points (prime bases, index starting at 1).

    Axis i uses the i-th prime, so the first point in d = 1 is 1/2 and
    the base-2 axis runs 1/2, 1/4, 3/4, 1/8, ...  Supports dim <= 16.
    """
    n, dim = check_int(n, "n", 0), check_int(dim, "dim", 1, len(_HALTON_PRIMES))
    pts = np.zeros((n, dim))
    for x, base in zip(pts.T, _HALTON_PRIMES):
        # the radical inverse of every index at once, digit by digit
        i, f = np.arange(1, n + 1), 1.0
        while i.any():
            f /= base
            x += f * (i % base)
            i //= base
    return PointSet(pts)


def save_pointset(ps: PointSet) -> str:
    """CSV text, one point per line, full round-trip precision."""
    lines = [",".join(repr(float(c)) for c in row) for row in ps.coords]
    return "".join(line + "\n" for line in lines)


def load_pointset(text: str, dim: int | None = None) -> PointSet:
    """Parse CSV text produced by save_pointset.

    An empty file is the empty point set; its dimension cannot be
    inferred, so ``dim`` is required in that case.  Rejects malformed
    lines, coordinates outside [0, 1), and inconsistent row lengths.
    """
    if dim is not None:
        dim = check_int(dim, "dim", 1)
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed coordinate") from exc
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: inconsistent dimension")
        rows.append(row)
    if not rows:
        if dim is None:
            raise ValueError("empty input: dimension must be supplied")
        return empty_pointset(dim)
    if dim is not None and dim != len(rows[0]):
        raise ValueError(f"declared dim {dim} does not match rows of length {len(rows[0])}")
    return PointSet(np.array(rows))
