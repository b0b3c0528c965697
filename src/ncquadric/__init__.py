"""Noncommutative quadric hypersurfaces: isolated-singularity detection,
module decomposition, and pre-resolution structure, all in exact arithmetic.
"""

from .errors import (AdditivityViolated, AlgebraError, AmbientMismatch,
                     ContainmentViolated, DivisionByZero, FieldMismatch,
                     NonSplit, NoStableCentral, NotCentral,
                     NotRegularCertificate, NotSemisimple, ParseError,
                     RelationDependence, UnsupportedDimension)
from .fields import Field, FieldElement, Polynomial, parse_field_spec, \
    roots_in_field
from .findim import FiniteDimAlgebra, SmallRng
from .hypersurface import (HypersurfaceContext, build_context,
                           dimension_identities, end_algebra,
                           koszul_component, stable_dual_algebra,
                           syzygy_presentation)
from .linalg import Matrix, Subspace
from .modules import (GradedModule, ModulePresentation, classify_mcm,
                      direct_sum, end_algebra_of, free_module,
                      hom_graded, hom_space, identify_cyclic_quotient,
                      idempotent_summand, preresolution_table,
                      syzygy_shift_evidence)
from .pipeline import STAGES, PipelineReport, StageReport, run_pipeline
from .presentation import ParsedInput, parse_file, parse_source
from .quadratic import (QuadraticPresentation, is_regular_deg2,
                        koszul_numeric_check, linear_string,
                        quantum_polynomial_certificate, tensor2_string)
from .tensors import koszul_space, koszul_transition

__version__ = "0.1.0"

__all__ = [
    "AdditivityViolated", "AlgebraError", "AmbientMismatch",
    "ContainmentViolated", "DivisionByZero", "Field", "FieldElement",
    "FieldMismatch", "FiniteDimAlgebra", "GradedModule", "HypersurfaceContext",
    "Matrix", "ModulePresentation", "NonSplit",
    "NoStableCentral", "NotCentral", "NotRegularCertificate",
    "NotSemisimple", "ParseError", "ParsedInput", "PipelineReport",
    "Polynomial", "QuadraticPresentation", "RelationDependence",
    "SmallRng", "StageReport", "Subspace", "UnsupportedDimension",
    "build_context", "classify_mcm", "dimension_identities", "direct_sum",
    "end_algebra", "end_algebra_of", "free_module", "hom_graded",
    "hom_space", "identify_cyclic_quotient", "idempotent_summand",
    "is_regular_deg2", "koszul_component", "koszul_numeric_check",
    "koszul_space", "koszul_transition", "linear_string", "parse_field_spec",
    "parse_file", "parse_source", "preresolution_table",
    "quantum_polynomial_certificate", "roots_in_field", "run_pipeline",
    "STAGES", "stable_dual_algebra", "syzygy_presentation",
    "syzygy_shift_evidence", "tensor2_string",
]
