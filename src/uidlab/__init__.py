"""uidlab: identifier schemes at the bit level, and what they cost.

Generators for UUIDv4, UUIDv7 and ULID built directly from their bit
layouts with injectable clock and randomness sources; canonical text codecs
(Crockford base32 and hyphenated hex); a high-precision birthday-bound
collision model; a batched generation benchmark emitting time-series CSV;
and an in-process producer/broker/consumer pipeline that checks uniqueness
and ordering end to end.

``import uidlab`` runs core and codec only. sim, collision and bench run the
first time one of their names is read.
"""

import importlib.util
import sys

from . import codec, core
from .core import *
from .codec import *

# The __all__ of each lazy module, which each module reads from here, served
# by the module __getattr__ below (PEP 562) so that a caller that never uses
# them does not compile them.
_LAZY = {
    "collision": (
        "MIN_BITS", "MAX_BITS", "EXACT_MAX_BITS", "DEFAULT_RATES", "CollisionQuery", "Probability",
        "DomainTooLarge", "approx_no_collision_prob", "collision_prob", "exact_no_collision_prob",
        "count_for_probability", "relative_risk", "risk_table", "RiskTable", "UUIDV4_TABLE_NOTE",
        "FIFTY_PERCENT_THRESHOLD_NOTES",
    ),
    "bench": (
        "CSV_HEADER", "HEADLINE_RATIO_NOTE", "BenchConfig", "MetricsSample", "SummaryStats", "BenchSummary",
        "TimerResolutionTooCoarse", "EmptyInput", "MalformedMetrics", "SimulatedTimer", "run_generation_bench",
        "write_metrics_csv", "read_metrics_csv", "summarize", "metrics_filename",
    ),
    "sim": (
        "Event", "Topic", "Sink", "SimConfig", "SimReport", "TopicClosed", "UnknownPartition", "EventCountMismatch",
        "partition_for", "run_simulation", "verify_ordering",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*core.__all__, *codec.__all__, *_LAZY["collision"], *_LAZY["bench"], *_LAZY["sim"]]

# sim alone is in sys.modules and bound here from import on, because the
# benchmark's tracer looks it up in sys.modules (ROADMAP item 1). It is made
# by the LazyLoader recipe of the importlib docs, which runs the module's code
# on its first attribute read and then re-applies any attribute set before
# that. CPython 3.11's lazy module takes no lock and swaps its class before it
# runs the code, so a second thread reading sim during that first load could
# see it half-built. uidlab starts threads only inside run_simulation, itself
# a sim attribute read first on the caller's thread.
sim = sys.modules[f"{__name__}.sim"] = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.sim"))
importlib.util.LazyLoader(sim.__loader__).exec_module(sim)

__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")  # also binds the module here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
