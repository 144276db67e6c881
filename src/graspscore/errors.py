"""Exception types shared across the package."""


class GraspScoreError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraspScoreError):
    """A mesh, config or scene file is missing, unreadable, or malformed."""


class SchemaError(GraspScoreError):
    """A label or prediction file violates the column schema.

    The message names the file and the 1-based ``line`` of the offending row.
    """

    def __init__(self, message: str, line: int, path: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


class EmptyMesh(GraspScoreError):
    """No usable faces remain after parsing and degenerate-face removal."""


class KTooLarge(GraspScoreError):
    """A k-NN query asked for more neighbors than the index holds."""


class UnknownObjectId(GraspScoreError):
    """A prediction or scene references an object id with no loaded mesh."""


class ConfigError(GraspScoreError):
    """A config file contains an unknown key or an unparseable value."""
