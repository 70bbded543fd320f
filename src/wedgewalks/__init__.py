"""Exact enumeration and generating functions for partially directed walks
confined to wedges, with kernel-method solutions, theta-like series, and
high-precision asymptotics -- every closed form cross-validated against
independent dynamic-programming counts.
"""

__version__ = "0.1.0"

from .series import TSeries, tpoly
from .walks import CountTable, WedgeModel, brute_force_oracle, count_walks, weighted_gf

__all__ = [
    "TSeries",
    "tpoly",
    "CountTable",
    "WedgeModel",
    "brute_force_oracle",
    "count_walks",
    "weighted_gf",
    "__version__",
]
