"""
Producer -> broker -> consumer, in one process
==============================================

Producers stamp events with fresh identifiers and publish them to a
partitioned topic (partition = CRC-32 of the id string, mod partitions).
Consumers drain the partitions through one offset per partition and
store everything in a uniqueness-checking sink. The report proves conservation
(published == consumed == stored), uniqueness, and per-producer ordering
inside each partition.
"""

from uidlab import IdScheme, SimConfig, run_simulation

# Deterministic mode: single-threaded round-robin on a virtual clock.
# Same seed, same report, bit for bit.
cfg = SimConfig(
    scheme=IdScheme.ULID,
    producers=4,
    events_per_producer=5_000,
    partitions=4,
    consumers=2,
    seed=42,
    deterministic=True,
)
report = run_simulation(cfg)
# `uidlab sim --deterministic` prints every field of the report; here are the
# integrity figures. Virtual-time runs count rounds, not wall-clock seconds.
print(f"deterministic: {report.events_total} published, {report.consumed_total} consumed, "
      f"{report.stored_total} stored, {report.duplicate_count} duplicates, "
      f"{report.ordering_violations} ordering violations, "
      f"{report.elapsed_seconds:.3f}s (virtual)")
assert report == run_simulation(cfg), "deterministic mode must replay identically"
print("replayed identically under seed", cfg.seed)

# Threaded mode: real concurrency, real time and OS entropy (so no seed),
# same integrity guarantees.
threaded = run_simulation(
    SimConfig(scheme=IdScheme.ULID, producers=4, events_per_producer=5_000)
)
print()
print(f"threaded: {threaded.events_total} events, "
      f"{threaded.duplicate_count} duplicates, "
      f"{threaded.ordering_violations} ordering violations, "
      f"{threaded.elapsed_seconds:.3f}s")
