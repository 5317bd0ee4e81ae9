"""Exception hierarchy shared by all batecho modules."""


class BatechoError(Exception):
    """Base class for all library errors."""


class GraphError(BatechoError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class Disconnected(GraphError):
    pass


class RootOutOfRange(GraphError):
    pass


class ParameterTooSmall(GraphError):
    pass


class InfeasibleRegularGraph(GraphError):
    pass


class EmptyGlueList(GraphError):
    pass


class DivisionByZero(BatechoError, ZeroDivisionError):
    pass


class ConvergenceFailure(BatechoError):
    pass


class RootFindingFailure(BatechoError):
    pass


class NoThreeDivisorPairs(BatechoError):
    pass


class SearchExhausted(BatechoError):
    """The gap search never confirmed q_k below its threshold; `n_used` is
    the vertex count the search worked with."""

    def __init__(self, message: str, n_used: int):
        super().__init__(message)
        self.n_used = n_used


class BudgetOverflow(BatechoError):
    pass


class DomainError(BatechoError, ValueError):
    pass
