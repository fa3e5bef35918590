"""uidlab: identifier schemes at the bit level, and what they cost.

Generators for UUIDv4, UUIDv7 and ULID built directly from their bit
layouts with injectable clock and randomness sources; canonical text codecs
(Crockford base32 and hyphenated hex); a high-precision birthday-bound
collision model; a batched generation benchmark emitting time-series CSV;
and an in-process producer/broker/consumer pipeline that checks uniqueness
and ordering end to end.

``import uidlab`` loads core, codec and sim; collision and bench load the
first time one of their names is read.
"""

import importlib

from . import codec, core, sim
from .core import *
from .codec import *
from .sim import *

# The __all__ of each lazy module, which each module reads from here, served
# by the module __getattr__ below (PEP 562) so that a caller that never uses
# collision or bench does not compile them.
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
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*core.__all__, *codec.__all__, *_LAZY["collision"], *_LAZY["bench"], *sim.__all__]

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
