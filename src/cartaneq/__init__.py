"""Exact structure computations for coframes and Pfaffian systems."""

from .chart import Chart, OpaqueFunction
from .errors import (
    ArgumentEscape,
    CartanError,
    ChartMismatch,
    DegreeOverflow,
    DivisionByZero,
    DomainError,
    NonEmptyEssentialTorsion,
    NotEquivalent,
    NotInClass,
    NotLinear,
    ParseError,
    SingularCoframe,
    UnknownName,
    VanishingJacobian,
)
from .expr import Expression
from .forms import Coframe, DifferentialForm, VectorField, wedge
from .ode2 import (
    check_flat_ode2,
    ode2_chart,
    painleve_map,
    pullback_ode2,
    realize_syzygy,
    run_equivalence_ode2,
    syzygies_ode2,
)
from .ode3 import contact_prolongation_ode3, ode3_chart
from .parser import parse_expression, render_latex, render_text
from .pfaffian import (
    PfaffianSystem,
    absorb_torsion,
    cartan_characters,
    coframe_structure_equations,
    contact_system,
    is_linear,
    prolong,
    structure_equations,
)
from .systems import (
    check_flat_ode_system,
    check_flat_pde_system,
    odesys_chart,
    pdesys_chart,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "OpaqueFunction",
    "Expression",
    "DifferentialForm",
    "VectorField",
    "Coframe",
    "wedge",
    "PfaffianSystem",
    "structure_equations",
    "coframe_structure_equations",
    "is_linear",
    "absorb_torsion",
    "cartan_characters",
    "contact_system",
    "prolong",
    "ode2_chart",
    "run_equivalence_ode2",
    "syzygies_ode2",
    "realize_syzygy",
    "check_flat_ode2",
    "painleve_map",
    "pullback_ode2",
    "odesys_chart",
    "pdesys_chart",
    "check_flat_ode_system",
    "check_flat_pde_system",
    "ode3_chart",
    "contact_prolongation_ode3",
    "parse_expression",
    "render_text",
    "render_latex",
    "CartanError",
    "DivisionByZero",
    "UnknownName",
    "ChartMismatch",
    "ArgumentEscape",
    "DomainError",
    "DegreeOverflow",
    "SingularCoframe",
    "NotLinear",
    "NonEmptyEssentialTorsion",
    "VanishingJacobian",
    "NotInClass",
    "NotEquivalent",
    "ParseError",
    "__version__",
]
