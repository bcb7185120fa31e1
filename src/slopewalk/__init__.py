"""slopewalk: exact 2-adic slope computations on classical and overconvergent
modular forms, the boundary weight coordinate, and machine-checkable
annulus-walk certificates.

Everything is exact rational arithmetic; no floats anywhere.
"""

__version__ = "0.1.0"
