"""Discrete-event simulation engine.

The paper's simulator schedules "exactly one resource transaction in each
unit of simulation time", models no transmission delays or losses, and feeds
new peers into the system through a Poisson arrival process.  This package
reproduces that model:

* :mod:`~repro.sim.events` / :mod:`~repro.sim.event_queue` — the classic DES
  machinery (timestamped events in a priority queue) used for arrivals,
  delayed introduction responses and periodic metric samples;
* :mod:`~repro.sim.arrivals` — the Poisson arrival process and the
  behaviour/policy assignment of arriving peers;
* :mod:`~repro.sim.transactions` — one resource transaction: requester and
  respondent selection, the serve/deny decision driven by the requester's
  reputation, service outcome, and feedback to both partners' score managers;
* :mod:`~repro.sim.engine` — :class:`~repro.sim.engine.Simulation`, the
  orchestrator that wires every subsystem together and produces a
  :class:`~repro.metrics.summary.RunSummary`.
"""

from .events import Event, EventKind
from .event_queue import EventQueue
from .clock import SimulationClock
from .arrivals import ArrivalFactory, PoissonArrivalProcess
from .transactions import TransactionOutcome, TransactionEngine
from .engine import Simulation, run_simulation

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "SimulationClock",
    "ArrivalFactory",
    "PoissonArrivalProcess",
    "TransactionOutcome",
    "TransactionEngine",
    "Simulation",
    "run_simulation",
]
