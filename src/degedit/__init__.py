"""degedit: degree-constrained vertex/edge deletion on planar graphs.

Exact solving (treewidth dynamic programming plus a brute-force oracle),
instance normalization, and polynomial kernelization for the plain and
connected problem variants.
"""

from .graph import Graph, edge_key, is_planar
from .instance import (CONNECTED, PLAIN, Instance, Solution, check_solution,
                       is_efficient)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Instance", "Solution", "PLAIN", "CONNECTED",
    "check_solution", "edge_key", "is_efficient", "is_planar",
]
