"""
Sweep of K3 weight systems
==========================

Every well-formed weight vector (w0, ..., w3) whose simplex has the interior
point property yields a stringy K3: Euler number 24 and the full K3 Hodge
diamond on the mirror side, whether or not a quasi-smooth member exists.
This script sweeps all of them with w <= 24 and verifies the claim.
"""

import sys
from itertools import combinations_with_replacement

from stringymirror import (
    NotWellFormed,
    hodge_table,
    ip_property,
    stringy_e,
    to_polynomial,
    transverse,
    validate,
    verify,
)

WMAX = 24

rows = []
for tup in combinations_with_replacement(range(1, WMAX + 1), 4):
    if sum(tup) > WMAX:
        continue
    try:
        wv = validate(tup)
    except NotWellFormed:
        continue
    if not ip_property(wv):
        continue
    rows.append(wv)

print(f"{len(rows)} well-formed IP weight systems with w <= {WMAX}")
print()
print(f"{'weights':>16}  {'w':>3}  {'transverse':>10}  {'euler':>5}  h^{{1,1}}")

all_k3 = True
for wv in rows:
    report = verify(wv)
    if not report.passed:
        sys.exit(f"mirror check failed for {wv.weights}")
    poly = to_polynomial(stringy_e(wv))
    h11 = hodge_table(poly, 2).h(1, 1)
    if report.euler_stringy != 24 or h11 != 20:
        all_k3 = False
    print(f"{str(wv.weights):>16}  {wv.w:>3}  {str(transverse(wv)):>10}  "
          f"{str(report.euler_stringy):>5}  {h11}")

print()
print("every member is a stringy K3:", all_k3)
