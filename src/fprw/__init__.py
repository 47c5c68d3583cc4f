"""Random-walk return-probability asymptotics on free products of groups."""

from .classify import AsymptoticLaw, classify_multi, classify_two, darboux_map
from .factors import (
    ExplicitSeries,
    FiniteGroup,
    GreenAnalytics,
    HomTree,
    LatticeNN,
    analyze_factor,
    cyclic_group,
    flip_group,
)
from .phase import PhaseDiagram, regime_case, sweep, tune_axis_weights, upsilon
from .product import (
    FreeProductSpec,
    ProductAnalytics,
    analyze_product,
    normalized_green_series,
    product_green_series,
    product_radius,
    sqrt_coefficient,
    zeta_at,
)
from .series import PowerSeries, series_compose, series_mul, series_reciprocal

__version__ = "0.1.0"
