"""Exception types shared across the library."""


class LinAlgError(Exception):
    """Numerical failure inside a matrix routine."""


class SingularMatrix(LinAlgError):
    """A pivot or diagonal entry is too small to divide by."""


class RankDeficient(LinAlgError):
    """A column collapsed during orthogonalization."""


class NotSymmetric(LinAlgError):
    """An operation requiring a symmetric matrix received an asymmetric one."""


class NoConvergence(LinAlgError):
    """An iterative factorization exhausted its iteration budget."""


class DimensionMismatch(ValueError):
    """Operand shapes do not conform."""


class LengthMismatch(DimensionMismatch):
    """Paired vectors have different lengths."""


class InvalidLabel(ValueError):
    """A class label is outside {0, 1}."""


class LayoutMismatch(ValueError):
    """Trial count does not match the (session, run, image) grid."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; message carries row/column location."""


class SchemaError(ValueError):
    """A CSV file does not follow the expected column layout."""
