"""Exception hierarchy shared by all modules."""


class GraphNLSError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GraphNLSError):
    """Invalid run configuration or input file."""


# a graph that breaks one of the four rules below is bad input, like any
# other config value
class DisconnectedGraph(ConfigError):
    pass


class NonPositiveWeight(ConfigError):
    pass


class DuplicateEdge(ConfigError):
    pass


class SelfLoop(ConfigError):
    pass


class NonInteriorDensity(GraphNLSError):
    """Density has a non-positive (or numerically vanishing) entry."""


class NonZeroMean(GraphNLSError):
    """Vector expected to be orthogonal to the all-ones vector is not."""


class NearSingular(GraphNLSError):
    """The grounded weighted Laplacian is singular or has a subnormal entry."""


class ZeroModulus(GraphNLSError):
    """Wave function vanishes at a node."""


class NewtonDivergence(GraphNLSError):
    """Implicit solve failed to reach tolerance within the iteration cap."""


class StepLeftSimplex(GraphNLSError):
    """A time step produced a density outside the interior of the simplex."""


class IncommensurateWaveNumber(GraphNLSError):
    pass


class MaxIterations(GraphNLSError):
    """Iterative solver hit its iteration cap before converging.

    Carries the partial result in the ``result`` attribute when available.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
