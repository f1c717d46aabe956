"""Exception types shared across the package, and the seed rule of its two seeded stages."""


class CityformError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CityformError):
    """Bad configuration or arguments, caught before any real computation."""


class DataError(CityformError):
    """Malformed or internally inconsistent input data."""


class EmptyCityError(DataError):
    """A city network with no nodes where a non-empty one is required."""


class DegenerateGeometryError(DataError):
    """Geometry too degenerate to define a direction or an angle."""


def check_seed(seed: int) -> None:
    if seed < 0:  # random.Random seeds with |seed|, so -s would repeat s
        raise ValidationError(f"seed must be >= 0, got {seed}")
