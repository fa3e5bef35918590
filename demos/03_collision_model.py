"""
Birthday-bound collision risk
=============================

How many identifiers can be generated before duplicates become likely?
The model works on the random bits that must not collide inside one
independence window: 122 for UUIDv4 (its whole life), 74 for UUIDv7 and 80
for ULID (one millisecond each).
"""

from uidlab import (
    CollisionQuery,
    IdScheme,
    collision_prob,
    count_for_probability,
    exact_no_collision_prob,
    relative_risk,
)
from uidlab.cli import main as uidlab

# The headline table, as `uidlab model --table` prints it: collision
# probability per window at three rates. Note the printed caveat about
# commonly circulated UUIDv4 figures.
uidlab(["model", "--table"])

# The same numbers are available programmatically at full precision.
p = collision_prob(CollisionQuery(80, 1000))
print("ULID, 1000 ids in one millisecond:", p.sci(6))

# 50% thresholds: the familiar sqrt(2 d ln 2) birthday bound.
for bits in (122, 74, 80):
    print(f"{bits:>3} random bits -> 50% collision at n ~ {count_for_probability(bits, 0.5):.3e}")

# ULID vs UUIDv7: six more random bits means 1/64th the risk.
gap = relative_risk(IdScheme.ULID, IdScheme.UUID_V7, 1000)
print(f"\nULID risk is {gap:.4%} lower than UUIDv7 at 1000 ids/ms")

# At small widths the exact product is tractable and shows how good (or
# not) the exponential approximation is.
query = CollisionQuery(16, 300)
exact = float(exact_no_collision_prob(query))
approx = float(collision_prob(query).complement())
print(f"\n16-bit space, 300 draws: exact P(no dup) = {exact:.6f}, approx = {approx:.6f}")
