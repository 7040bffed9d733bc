"""Exception hierarchy shared by the whole toolkit."""


class FsmError(Exception):
    """Base class of every error raised by fsmkit."""


class ConstructionError(FsmError):
    """A machine, symbol or word cannot be assembled as requested."""


class MachineError(FsmError):
    """An operation was applied to a machine that does not satisfy its
    preconditions (nondeterminism, alphabet mismatch, wrong kind, ...)."""


class InvalidInputError(FsmError):
    """A run that was required to accept did not."""


class StateCapError(ConstructionError):
    """An exploration exceeded the state cap, or the cap is not a positive
    integer."""


class AnalysisError(FsmError):
    """An exact analysis cannot be carried out on this machine."""


class NegativeCycleError(AnalysisError):
    """Shortest-path search found a negative cycle; `cycle` is a witness."""

    def __init__(self, cycle):
        super().__init__("negative cycle: " + " -> ".join(str(v) for v in cycle))
        self.cycle = list(cycle)
