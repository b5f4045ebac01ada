"""Exact computations in module and bounded derived categories of
linear-chain path algebras: interval modules, approximation sequences,
double-centraliser and tilting deciders, and exhaustive classification."""

from .quiver import Algebra, Interval, InputError, ext_dim, hom_dim
from .derived import DerivedMorphism, DerivedObject, cone, graded_hom
from .endalg import (
    SCAlgebra,
    SCModule,
    end_of,
    is_hereditary,
    is_linear_A,
)
from .approx import hom_module, min_left_approx_sequence
# No module of the package uses reps, the representation layer the tests
# take as reference; importing it here makes `import ddcp` load every
# module, as the per-layer tracer of perfbench expects.
from . import reps  # noqa: F401
from .deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    verify_homology_corners,
)
from .classify import (
    ClassificationResult,
    enumerate_and_classify,
    make_T,
    make_V,
    zero_path_audit,
)

__all__ = [
    "Algebra",
    "Interval",
    "InputError",
    "ext_dim",
    "hom_dim",
    "DerivedObject",
    "DerivedMorphism",
    "cone",
    "graded_hom",
    "SCAlgebra",
    "SCModule",
    "end_of",
    "is_hereditary",
    "is_linear_A",
    "hom_module",
    "min_left_approx_sequence",
    "check_module_dcp",
    "check_tilting_module",
    "check_ddcp",
    "check_ddcp_derived",
    "check_tilting_complex",
    "verify_homology_corners",
    "ClassificationResult",
    "make_V",
    "make_T",
    "enumerate_and_classify",
    "zero_path_audit",
]

__version__ = "1.0.0"
