"""The library's four exceptions.  The CLI turns each into one exit code:
SearchExhausted into 3, BudgetOverflow into 4, and any other BatechoError
into 2.  DomainError refuses an input, a graph or a parameter; it is also
a ValueError."""


class BatechoError(Exception):
    """Base class for all library errors."""


class DomainError(BatechoError, ValueError):
    """A refused input, graph or parameter; the message says which."""


class SearchExhausted(BatechoError):
    """The gap search never confirmed q_k below its threshold; `n_used` is
    the vertex count the search worked with."""

    def __init__(self, message: str, n_used: int):
        super().__init__(message)
        self.n_used = n_used


class BudgetOverflow(BatechoError):
    """The gap search spent more experiments than its audit bound."""
