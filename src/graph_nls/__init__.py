"""Structure-preserving Schrodinger dynamics on finite weighted graphs.

Each module's ``__all__`` is the package API; the imports below republish it.
"""

from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .energy import *  # noqa: F401,F403
from .transport import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .ground_state import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
