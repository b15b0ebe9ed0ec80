"""phi-adic Newton polygons, residual polynomials, and irreducibility bounds
for monic integer polynomials with the p-adic valuation."""

__version__ = "0.3.0"

from .valuation import INFINITY, is_prime
from .polyring import (
    IntPoly,
    PhiExpansion,
    phi_expand,
)
from .residue_field import (
    ExtField,
    FactorizationFp,
    FqPoly,
    PrimeField,
    factor_degrees,
    fp_factorize,
)
from .polygon import (
    NewtonPolygon,
    Side,
    build_polygon,
)
from .residual import residual_polynomial
from .criteria import (
    BOUNDED,
    INAPPLICABLE,
    IRREDUCIBLE,
    AnalysisReport,
    PhiReport,
    SideAnalysis,
    analyze,
)
from .expr import ParseError, parse_poly, render_poly

__all__ = [
    "INFINITY",
    "is_prime",
    "IntPoly",
    "PhiExpansion",
    "phi_expand",
    "ExtField",
    "FactorizationFp",
    "FqPoly",
    "PrimeField",
    "factor_degrees",
    "fp_factorize",
    "NewtonPolygon",
    "Side",
    "build_polygon",
    "residual_polynomial",
    "BOUNDED",
    "INAPPLICABLE",
    "IRREDUCIBLE",
    "AnalysisReport",
    "PhiReport",
    "SideAnalysis",
    "analyze",
    "ParseError",
    "parse_poly",
    "render_poly",
]
