"""Finite-difference schemes for generalized porous medium equations with
local and integro-differential diffusion, plus the analytical instruments
(mass ledger, moment checks, uniform tail certificates) that make runs
auditable.

The package imports none of its modules, so importing the CLI loads no
numpy before it applies ``GPME_THREADS``; import each module by name.
"""

__version__ = "0.1.0"
