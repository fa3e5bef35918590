"""uidlab: identifier schemes at the bit level, and what they cost.

Generators for UUIDv4, UUIDv7 and ULID built directly from their bit
layouts with injectable clock and randomness sources; canonical text codecs
(Crockford base32 and hyphenated hex); a high-precision birthday-bound
collision model; a batched generation benchmark emitting time-series CSV;
and an in-process producer/broker/consumer pipeline that checks uniqueness
and ordering end to end.
"""

from . import bench, codec, collision, core, sim
from .core import *
from .codec import *
from .collision import *
from .bench import *
from .sim import *

__all__ = [*core.__all__, *codec.__all__, *collision.__all__, *bench.__all__, *sim.__all__]

__version__ = "0.1.0"
