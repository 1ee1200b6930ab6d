"""Test harnesses that drive the package from outside.

:mod:`repro.testing.chaos` runs shared campaigns in subprocess rounds under
``REPRO_FAULT_INJECT``'s crash directives until they converge.  The
directives themselves are parsed by :func:`repro.settings.fault_directives`
and act at their points in the executor and the campaign store, so no
run-time module imports this package.
"""

from .chaos import ChaosReport, ChaosRound, run_chaos_campaign

__all__ = ["ChaosReport", "ChaosRound", "run_chaos_campaign"]
