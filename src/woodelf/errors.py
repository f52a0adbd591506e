"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config/mode problems, model schema
problems, data problems, and verification failures each get their own code.
"""


class WoodelfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(WoodelfError, ValueError):
    """Vector/matrix sizes do not line up (row width, matrix size, ...)."""


class ModelSchemaError(WoodelfError, ValueError):
    """A model dump violates the expected schema (bad node, cycle, depth cap, ...)."""


class DataError(WoodelfError, ValueError):
    """Tabular input is unusable: missing column, non-numeric cell, ragged row."""


class ModeError(WoodelfError, ValueError):
    """Attribution mode misuse: empty background, path-dependent without covers."""


class NodeKindError(WoodelfError, TypeError):
    """A leaf was used where an inner node is required, or vice versa."""


class VerificationError(WoodelfError):
    """An oracle cross-check exceeded its tolerance."""
