"""Exception types shared across the package."""


class VersorlabError(Exception):
    """Base class for all domain errors raised by versorlab."""


class SignatureMismatch(VersorlabError):
    """Operands live in different Clifford algebras."""


class NotAVersor(VersorlabError):
    """Multivector failed the unit-versor validation."""


class ClosureCapExceeded(VersorlabError):
    """A reflection or multiplicative closure blew past its size cap."""


class UnknownCatalogName(VersorlabError):
    """Requested root system is not in the catalog."""


class PointAtInfinity(VersorlabError):
    """Conformal point cannot be normalized (weight against infinity vanished)."""


class AmbiguousIrrepDims(VersorlabError):
    """The irrep dimension constraints admit zero or several solutions."""


class McKayMismatch(VersorlabError):
    """A correspondence row failed its three-way equality check."""


class SymmetrySweepFailure(VersorlabError):
    """A two-sided multiplication failed to permute the induced root set."""
