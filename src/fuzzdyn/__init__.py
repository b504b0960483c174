"""Exact finite models of subset and fuzzified dynamics.

Base systems are finite metric spaces with exact rational distances (or
truncated shifts of finite type); the package lifts them to the space of
nonempty subsets and to quantized fuzzy states, and checks dynamical
properties on every level with explicit exactness bookkeeping.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import BoundExceeded, FuzzdynError, InputError
from .spaces import (MetricSpace, SystemMap, eventual_period, iterate,
                     make_grid_interval_map, make_multiply, make_rotation,
                     one_point_system, product_system, validate_metric)
from .symbolic import ShiftSystem, full_shift, golden_mean_shift
from .hyperspace import (CompactSet, enumerate_compacts, hausdorff_distance,
                         lift_system)
from .fuzzy import (FuzzySet, GFunction, LevelGrid, alpha_cut,
                    enumerate_fuzzy, fuzzy_lift_system, g_fuzzify_apply,
                    xi_of, zadeh_apply)
from .families import FamilyClassifier, IndexSet
from .analysis import (Verdict, diam_decay, equicontinuity_modulus,
                       is_a_transitive, is_F_transitive,
                       is_mildly_mixing, is_mixing,
                       is_periodically_dense, is_proximal, is_proximal_pair,
                       is_sensitive, is_transitive, is_uniformly_rigid,
                       is_weakly_mixing, return_time_set, weakly_disjoint)
from .theorems import EquivalenceReport, verify_theorem

__all__ = sorted(name for name, obj in globals().items()
                 if not (name.startswith("_") or isinstance(obj, _ModuleType)))
