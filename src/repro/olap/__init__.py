"""OLAP layer: the multidimensional engine over the relational substrate.

Implements the role the paper's prototype delegates to the engine of [6]:
multidimensional metadata plus the rewriting of logical cube operations into
star-schema SQL.
"""

from .engine import MaterializedView, MultidimensionalEngine, RegisteredCube
from .advisor import ViewRecommendation, advise_views
from .metadata import hydrate_hierarchies

__all__ = [
    "MaterializedView",
    "MultidimensionalEngine",
    "RegisteredCube",
    "ViewRecommendation",
    "advise_views",
    "hydrate_hierarchies",
]
