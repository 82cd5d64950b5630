"""Search toolkit for small Kochen-Specker vector systems.

Pipelines: orderly enumeration of connected square-free graphs in canonical
form, exact 101-colourability, embedding onto cubic integer grids, and
interval branch-and-prune embeddability verdicts.  Each name is imported
from its module, for example ``from kssearch.orderly import
enumerate_graphs``; importing the package loads no module.
"""

__version__ = "0.1.0"
