"""The trace-pattern verifier's old home: two names re-exported, no logic.

``certificates`` checks both relaxations.  The benchmark's tracer
(``perfbench/tracing.py``, ``TRACED``) and its expected spans
(``perfbench/workloads.py``, ``EXPECTED_SPANS``) bind ``verify_anstreicher``
and ``shifted_spectrum`` here, and ``perfbench/`` keeps those names until
its spans move into the package (ROADMAP direction 1, step 3).
"""

from .certificates import shifted_spectrum, verify_anstreicher

__all__ = ["shifted_spectrum", "verify_anstreicher"]
