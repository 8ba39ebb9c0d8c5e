"""Command-line front end: CSV ingestion, config-driven orchestration,
text/CSV tables, and tidy plot data."""

from .config import RunConfig, load_config
from .io import (
    ingest,
    ingest_constituents,
    ingest_long,
    ingest_wide,
    write_csv,
    write_panel,
)
from .pipeline import COMMANDS, run

__all__ = [
    "COMMANDS",
    "RunConfig",
    "ingest",
    "ingest_constituents",
    "ingest_long",
    "ingest_wide",
    "load_config",
    "run",
    "write_csv",
    "write_panel",
]
