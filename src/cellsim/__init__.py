"""Uplink outage simulator for CDMA cells.

Compares the conventional center-sectored ("used") antenna arrangement with
the microzone arrangement, where antennas on the cell edge receive the uplink
jointly and their branch SIRs are diversity-combined.
"""

from .outage import OutageCurve, analytic_outage_used, mc_outage
from .scenario import (
    ConfigError,
    ExperimentResult,
    ScenarioConfig,
    analytic_used_curve,
    emit_csv,
    parse_config,
    run_experiment,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentResult",
    "OutageCurve",
    "ScenarioConfig",
    "analytic_outage_used",
    "analytic_used_curve",
    "emit_csv",
    "mc_outage",
    "parse_config",
    "run_experiment",
    "serialize_config",
]
