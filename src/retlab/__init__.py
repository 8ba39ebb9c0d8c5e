"""Monthly return panel analytics.

Containers and index construction (`series`), descriptive statistics
(`descstats`), principal-component factor structure (`factors`), loss
distribution fitting (`distfit`), risk reporting (`risk`), unit roots and
vector autoregression (`varmodel`), seeded synthetic data (`synth`), and a
config-driven command line (`cli`).
"""

from .series import (
    ConstituentRecord,
    LogPriceSeries,
    Month,
    Panel,
    ReturnSeries,
    Series,
    TimeGrid,
    align,
    build_value_weighted_index,
    cumulate_log_price,
    moving_average,
)

__version__ = "0.1.0"

__all__ = [
    "ConstituentRecord",
    "LogPriceSeries",
    "Month",
    "Panel",
    "ReturnSeries",
    "Series",
    "TimeGrid",
    "align",
    "build_value_weighted_index",
    "cumulate_log_price",
    "moving_average",
    "__version__",
]
