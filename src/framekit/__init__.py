"""Finite frame analysis over complex vector spaces.

Build the synthesis/analysis/frame/Gram operator family for a finite
sequence of vectors, compute optimal frame bounds and canonical duals,
solve minimum-norm reconstruction problems, and verify the operator
identities the theory promises, with every pseudoinverse cross-checked
along two independent routes.
"""

from . import errors, frame_ops, matrix_core, reconstruct, verifier
from .errors import *  # noqa: F403
from .frame_ops import *  # noqa: F403
from .matrix_core import *  # noqa: F403
from .reconstruct import *  # noqa: F403
from .verifier import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *matrix_core.__all__, *frame_ops.__all__, *reconstruct.__all__,
           *verifier.__all__, "__version__"]
