"""Edge magic total labelings: verification, exact bounds, exhaustive
spectra, product constructions and split doublings of bipartite graphs.

A total labeling assigns the integers 1..p+q bijectively to the p
vertices and q edges of a graph; it is edge magic when every edge plus
its endpoints sums to one constant (the valence), and super edge magic
when the vertices take 1..p.  The modules here verify labelings, bound
the possible valences by exact rational arithmetic, search small graphs
exhaustively, and build labelings of composite graphs from labelings of
their factors.
"""
from . import decomp, errors, graphs, intervals, labelings, products, search
from .errors import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .labelings import *  # noqa: F401,F403
from .intervals import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .products import *  # noqa: F401,F403
from .decomp import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for module in (errors, graphs, labelings, intervals, search, products, decomp)
      for name in module.__all__),
]
