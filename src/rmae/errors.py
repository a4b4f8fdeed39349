"""Exception taxonomy shared by all rmae modules.

I/O failures are reported through the builtin OSError; everything
domain-specific derives from RmaeError so callers can catch one base.
"""


class RmaeError(Exception):
    """Base class for all rmae-specific errors."""


class MalformedFile(RmaeError):
    """A file exists but its contents violate the expected format."""


class InvalidSpec(RmaeError):
    """A synthetic-scene specification is degenerate (zero extent, ...)."""


class InvalidParams(RmaeError):
    """Physical or model parameters violate their documented ranges."""


class ShapeError(RmaeError):
    """Tensor shapes or sparse supports are inconsistent."""


class DegenerateBatch(RmaeError):
    """Batch normalization saw zero elements in training mode."""


class EmptyQuerySet(RmaeError):
    """The occupancy loss was asked to average over zero query voxels."""


class StaleCache(RmaeError):
    """backward() was called without a matching forward() tape."""


class NoData(RmaeError):
    """Every input frame produced an empty voxel grid."""


class ConfigError(RmaeError):
    """A run configuration contains unknown keys or out-of-range values."""


class Diverged(RmaeError):
    """Training produced a non-finite loss or gradient."""
