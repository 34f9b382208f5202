"""Exact algebra on integer shift semigroups decorated by eventually
periodic subsets of the naturals.

The building blocks: :class:`~epshift.omega_sets.EpSet` (canonical
eventually periodic sets), :class:`~epshift.family.Family` (finite
shift-closed families), :class:`~epshift.core.Element` and
:class:`~epshift.core.SemigroupCtx` (the inverse semigroup itself, with a
zero when the family has an empty member), structural classification,
named morphisms onto reference semigroups, and a partial-map oracle that
validates the whole product formula pointwise.

The names from ``classify``, ``morphisms`` and ``partial_maps`` load on
first use, so a command that needs none of them does not pay for them.
"""

import sys
from importlib import import_module

from .core import (Element, SemigroupCtx, ZERO, green, green_witness,
                   idempotent_leq, inverse, is_idempotent, multiply,
                   natural_leq)
from .errors import (ClosureDiverged, DomainError, EmptyOutsideFamily,
                     NotIdempotent, NotOmegaClosed, NotRelated,
                     NotSingletonSet, OutsideFamily, ParseError,
                     ResourceLimit, WrongIsoType, WrongProgression,
                     ZeroInFamily)
from .family import Family, SingletonFamily, close, is_omega_closed
from .kernel import BACKEND as KERNEL_BACKEND
from .omega_sets import (EMPTY, EpSet, as_arith_progression, as_singleton,
                         exists_shift_subset, intersect, is_inductive,
                         is_subset, shift, union)

__version__ = "0.1.0"

__all__ = [
    "BrandtElt", "ClosureDiverged", "DomainError", "Element", "EMPTY",
    "EmptyOutsideFamily", "EpSet", "ExtBicyclicElt", "Family",
    "KERNEL_BACKEND", "MatrixUnitElt", "NotIdempotent", "NotOmegaClosed",
    "NotRelated", "NotSingletonSet", "OutsideFamily", "ParseError",
    "PartialShift", "ResourceLimit", "SemigroupCtx", "SingletonFamily",
    "StructureReport",
    "WrongIsoType", "WrongProgression", "ZERO", "ZeroInFamily",
    "as_arith_progression", "as_singleton", "brandt_mul", "classify",
    "close", "compose_shifts", "d_class_count",
    "exists_shift_subset", "ext_bicyclic_mul", "green", "green_witness",
    "idempotent_leq", "intersect", "inverse", "is_idempotent",
    "is_inductive", "is_omega_closed", "is_subset", "matrix_unit_mul",
    "multiply", "natural_leq", "partial_shift_iso", "progression_reindex",
    "restricted_compose_dom", "shift", "sigma_hom", "singleton_ctx",
    "to_brandt", "to_ext_bicyclic", "to_matrix_units", "union",
]

# exported name -> defining submodule, for the names loaded on first use
_LAZY = {
    **dict.fromkeys(("StructureReport", "classify", "d_class_count"),
                    "classify"),
    **dict.fromkeys(("BrandtElt", "ExtBicyclicElt", "MatrixUnitElt",
                     "brandt_mul", "ext_bicyclic_mul", "matrix_unit_mul",
                     "partial_shift_iso", "progression_reindex", "sigma_hom",
                     "singleton_ctx", "to_brandt", "to_ext_bicyclic",
                     "to_matrix_units"), "morphisms"),
    **dict.fromkeys(("PartialShift", "compose_shifts",
                     "restricted_compose_dom"), "partial_maps"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


class _Package(type(sys)):
    # Importing the submodule ``classify`` binds it on the package; keep the
    # exported function of the same name instead.
    def __setattr__(self, name, value):
        if not (name in _LAZY and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
