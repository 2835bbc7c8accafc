"""Quotient-space statistical analysis of graphs.

Graphs live in the quotient of adjacency matrices modulo node relabeling.
This package registers graphs across that quotient (spectral and
Frank-Wolfe matchers with a brute-force oracle), evaluates the induced
metric and geodesics, and builds statistics on top: Karcher means, PCA of
registered residuals, and a Gaussian generative model that samples back to
graph space.

Each library module's ``__all__`` lists its public names; the package
re-exports all of them.  The command line (``graphspace.cli``) is not
imported here.
"""

from . import assignment, documents, generators, graphs, matching, pipelines, stats
from .assignment import *  # noqa: F403
from .documents import *  # noqa: F403
from .generators import *  # noqa: F403
from .graphs import *  # noqa: F403
from .matching import *  # noqa: F403
from .pipelines import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (assignment, documents, generators, graphs, matching,
                               pipelines, stats) for name in module.__all__]
