"""Exception types shared across the package.

Every failure mode a caller is expected to branch on gets its own class;
generic programming errors stay ValueError/TypeError.
"""


class SubLorentzError(Exception):
    """Base class for all domain errors raised by this package."""


class NotChronological(SubLorentzError):
    """Target point is not in the chronological future of the base point."""


class OutOfDomain(SubLorentzError):
    """Argument lies outside the open domain of an inverse function."""


class NotCausalChain(SubLorentzError):
    """A consecutive pair in a partition is causally unrelated."""


class NoCausalCoupling(SubLorentzError):
    """No admissible transport plan exists: the causal arc structure
    cannot route the full mass."""


class InfeasibleDuals(SubLorentzError):
    """Dual potentials violate the constraint psi(y) - phi(x) >= c(x, y)."""


class DomainViolation(SubLorentzError):
    """Query point is outside the chronological past of the target atoms."""


class NondifferentiableAt(SubLorentzError):
    """Potential has (numerically) tied branches at the query point."""


class NotTimelikeGradient(SubLorentzError):
    """Gradient covector is not past-directed timelike, so the exponential
    map step of the transport map is undefined."""


class SingularJacobian(SubLorentzError):
    """Finite-difference Jacobian of the transport map is singular."""


class ParseError(SubLorentzError):
    """Measure or plan file is malformed; message carries line context."""


class WeightError(SubLorentzError):
    """Atom weights are negative or do not sum to one."""


class GenerationFailure(SubLorentzError):
    """Rejection sampling exhausted its retry budget."""
