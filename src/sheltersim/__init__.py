"""Discrete-event simulation of a youth crisis shelter: a capacity-limited
bed pool plus five appointment-pool services, impatient queues, replicated
scenario runs, and capacity-expansion sweeps."""

from .distributions import (
    ExponentialParams,
    TriangularParams,
    sample_bernoulli,
    sample_exponential,
    sample_triangular,
    sample_uniform_int,
)
from .experiment import (
    ConfigError,
    ReplicationStats,
    ScenarioConfig,
    ScenarioSummary,
    run_replication,
    run_scenario,
    sweep,
)
from .kernel import Resource, Simulator
from .model import ServiceSpec, ShelterModel, Youth, default_services
from .streams import RngStream

__version__ = "0.1.0"
