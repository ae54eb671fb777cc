"""Exception types shared across the package."""


class GpmeError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(GpmeError):
    """Invalid configuration: bad field value, unknown key, incompatible grids.

    ``field`` holds a dotted path into the offending config block when known,
    e.g. ``"problem.phi.m"``.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DataError(GpmeError):
    """Rejected input data: non-finite samples, out-of-domain evaluation,
    a field outside a flux's declared range.  ``step`` is the index of
    such a field's knot, the number of steps done (0 for U^0), when known.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StencilError(GpmeError):
    """Weight construction failed.  ``cell`` names the offending offset."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NonConvergenceError(GpmeError):
    """Iterative solve hit its sweep budget before reaching tolerance.

    ``cell`` is the grid index of the node with the worst residual and
    ``step`` the index of the time step whose solve stalled (set by the
    time loop), each when known.
    """

    def __init__(self, message, residual=None, sweeps=None, cell=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.sweeps = sweeps
        self.cell = cell
        self.step = step
