"""Counting restricted Eulerian orientations.

The package models 0-1 signatures supported on half-weight vectors,
detects the tractable families (affine signatures and both one-sided
delta closures), characterizes the irreducible kernels as multiples of
balanced Hadamard codes, and counts instances by Gaussian elimination, by
the chain reaction solver, or, when no chain reaction reaches an affine
residual, by an exact contraction along a narrow cut.
"""

from .affine import AffineSystem, affine_system, is_affine
from .canonical import canonical_form, permutation_equivalent
from .classes import (
    ClassReport,
    KernelKind,
    KernelStructure,
    classify,
    in_d0,
    in_d1,
    is_balanced_hadamard,
    is_d0_kernel,
    is_d1_kernel,
    kernel_structure,
)
from .engine import (
    CountResult,
    Instance,
    Method,
    brute_force,
    chain_reaction,
    solve,
    solve_affine,
    validate,
)
from .errors import (
    BudgetExceeded,
    EOError,
    FormatError,
    InstanceError,
    NotAffineError,
    PairingError,
    SizeCapExceeded,
    StructureViolation,
)
from .hadamard import (
    Polarity,
    PmMatrix,
    balanced_code,
    basic_kernel,
    basic_kernel_zero,
    butterfly,
    hadamard_code,
    sylvester,
    wings,
)
from .instance_io import instance_from_text, instance_to_text
from .signatures import (
    DELTA0,
    DELTA1,
    NEQ2,
    SCALAR_ONE,
    SCALAR_ZERO,
    Signature,
    WeightedSignature,
    complement,
    delta_factors,
    extract,
    is_eo,
    m_multiple,
    pin,
    pin2,
    signature_from_text,
    signature_to_text,
    strip_columns,
    tensor,
)

__all__ = [
    "AffineSystem", "affine_system", "is_affine",
    "canonical_form", "permutation_equivalent",
    "ClassReport", "KernelKind", "KernelStructure", "classify",
    "in_d0", "in_d1", "is_balanced_hadamard",
    "is_d0_kernel", "is_d1_kernel", "kernel_structure",
    "CountResult", "Instance", "Method",
    "brute_force", "chain_reaction", "solve", "solve_affine", "validate",
    "BudgetExceeded", "EOError", "FormatError", "InstanceError",
    "NotAffineError", "PairingError", "SizeCapExceeded", "StructureViolation",
    "Polarity", "PmMatrix", "balanced_code", "basic_kernel",
    "basic_kernel_zero", "butterfly", "hadamard_code", "sylvester", "wings",
    "instance_from_text", "instance_to_text",
    "DELTA0", "DELTA1", "NEQ2", "SCALAR_ONE", "SCALAR_ZERO",
    "Signature", "WeightedSignature", "complement",
    "delta_factors", "extract", "is_eo",
    "m_multiple", "pin", "pin2",
    "signature_from_text", "signature_to_text", "strip_columns", "tensor",
]

__version__ = "0.1.0"
