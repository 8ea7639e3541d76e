"""Certify that a plane polynomial has no real Jacobian mate.

The core test is combinatorial and exact: a right outer edge of the
Newton polygon running from (0, 1) to a point (a, b) with b > 1 and no
interior lattice points rules out any polynomial q for which the map
(p, q) has an everywhere positive Jacobian determinant.  Around that
sit numeric instruments: branch tracing at infinity, tongue-region
verification, and a falsifier that hunts Jacobian zeros for concrete
candidate mates.
"""

__version__ = "0.1.0"
