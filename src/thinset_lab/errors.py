"""Exception types shared across the package, and its one allocation budget."""

__all__ = [
    "DomainError",
    "InfeasibleError",
    "ResourceLimitError",
    "ExtractionError",
    "FitError",
]


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class InfeasibleError(ValueError):
    """The requested inversion has no solution in the valid region."""


class ResourceLimitError(RuntimeError):
    """An exact algorithm was asked to exceed its desk-scale budget."""


# every exact algorithm checks its estimated peak bytes against this one cap
# before it allocates; each call site keeps its own measured bytes per item
_BYTES_CAP = 1 << 30


def _check_bytes(need: int, what: str) -> None:
    if need > _BYTES_CAP:
        raise ResourceLimitError(f"{what} needs about {need} bytes, over the {_BYTES_CAP}-byte cap")


class ExtractionError(RuntimeError):
    """The partition loop could not extract a large enough quasi-independent
    block; the input does not satisfy the assumed density hypothesis with the
    given (c, epsilon)."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class FitError(ValueError):
    """Regression input is degenerate (constant or empty after filtering)."""
