"""Exception types shared across the package, and the one rule for what
counts as a number or a count at the public entry points."""

import math
from contextlib import contextmanager
from numbers import Integral, Real


class GapQuantError(Exception):
    """Base class for all errors raised by this package."""


class MeshFormatError(GapQuantError):
    """Polydata file could not be parsed."""


class AttributeLengthError(MeshFormatError):
    """A per-vertex scalar array does not match the vertex count."""


class TopologyError(GapQuantError):
    """Mesh violates a topology precondition (manifoldness, orientation, paths)."""


class VolumeFormatError(GapQuantError):
    """Volume header/raw pair could not be parsed or is inconsistent."""


class ConfigError(GapQuantError):
    """Region configuration is invalid or inconsistent with the mesh."""


class AreaError(GapQuantError):
    """A single search area failed; other areas may still be quantified."""


def is_real(value) -> bool:
    """A finite real number, Python or numpy scalar. A bool is an int
    subclass, but it is never taken as the number 0 or 1."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def is_count(value) -> bool:
    """An integer >= 0, Python or numpy scalar, and not a bool."""
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and value >= 0)


@contextmanager
def in_file(path):
    """Prefix the message of a GapQuantError raised inside with "path: ",
    unless it starts so already (an inner `in_file` of the same path); the
    error keeps its type."""
    try:
        yield
    except GapQuantError as exc:
        if not str(exc).startswith(f"{path}: "):
            exc.args = (f"{path}: {exc}",)
        raise
