"""Learn temporally smooth sequences of sparse weighted graphs from signals.

The central entry points are :func:`fit_dynamic` (one graph per time window)
and :func:`fit_static` (one graph for the whole record), both driven by a
:class:`SolverConfig`.  Supporting modules expose the graph primitives,
the capped-simplex projection, the proximal operator, a synthetic scenario
generator with recovery metrics, and cross-trial analysis tools.

The public names are those each module lists in its ``__all__``.
"""

from . import analysis, errors, graphs, projection, proximal, solver, synthetic
from .analysis import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .projection import *  # noqa: F401,F403
from .proximal import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *errors.__all__,
    *graphs.__all__,
    *projection.__all__,
    *proximal.__all__,
    *solver.__all__,
    *synthetic.__all__,
    "__version__",
]
