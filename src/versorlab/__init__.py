"""versorlab: a small laboratory for Clifford-algebra group theory.

Dense multivector arithmetic over Cl(p,q) with p+q <= 8, reflection-generated
root systems with Cartan matrices and Coxeter diagrams, Pin/Spin versor groups
with conjugacy structure, spinor-induced 4D root systems, binary polyhedral
representation numerology, and the 2D conformal model carrying the modular
group.  The package exports each module's ``__all__`` (``errors``: its
exception classes).
"""

from .algebra import *  # noqa: F403
from .cga2d import *  # noqa: F403
from .errors import *  # noqa: F403
from .groups import *  # noqa: F403
from .induction import *  # noqa: F403
from .mckay import *  # noqa: F403
from .roots import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"
