"""Discrete-event simulation of a youth crisis shelter: a capacity-limited
bed pool plus five appointment-pool services, impatient queues, replicated
scenario runs, and capacity-expansion sweeps."""

from .config import ConfigError, ScenarioConfig, ServiceSpec, default_services
from .distributions import TriangularParams, sample_triangular
from .experiment import ReplicationStats, ScenarioSummary, run_replication, run_scenario, sweep
from .kernel import Resource, Simulator
from .model import ShelterModel, Youth
from .streams import RngStream

__version__ = "0.1.0"
