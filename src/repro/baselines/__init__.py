"""Baseline engines used for the comparative experiments (Sections 6.2, 6.3, 6.5).

None of the systems the paper compares against (RDFox, LLunatic, DLV, Graal,
PDQ, PostgreSQL, MySQL, Oracle, Neo4J) can be shipped here; each baseline
re-implements the *algorithmic trait* the paper identifies as the reason for
that system's behaviour:

* :class:`RestrictedChaseEngine` — restricted chase with a full homomorphism
  check before every step (Graal / LLunatic / PDQ style);
* :class:`SkolemChaseEngine` — unrestricted (oblivious) Skolem chase with
  full grounding of rule instances (DLV / RDFox style);
* :class:`RecursiveSqlEngine` — naive recursive-CTE evaluation without
  existentials, re-joining the full relations at every iteration
  (PostgreSQL / MySQL / Oracle style);
* :class:`GraphTraversalEngine` — BFS traversal over an edge relation
  (Neo4J style), only applicable to reachability-shaped tasks.
"""

from .homomorphism import find_homomorphism, homomorphism_exists
from .restricted_chase import ChaseLimitError, RestrictedChaseEngine
from .skolem_chase import SkolemChaseEngine
from .sql_recursion import RecursiveSqlEngine
from .graph_engine import GraphTraversalEngine

__all__ = [
    "ChaseLimitError",
    "find_homomorphism",
    "homomorphism_exists",
    "RestrictedChaseEngine",
    "SkolemChaseEngine",
    "RecursiveSqlEngine",
    "GraphTraversalEngine",
]
