"""The plan sweep's former name for its calibration.

:class:`~repro.core.calibration_cache.Calibration` is the one calibrated
object; ``CalibrationArtifact`` stays its alias while ``benchmarks/ledger``
imports the name (ROADMAP item 9).
"""

from repro.core.calibration_cache import Calibration

__all__ = ["CalibrationArtifact"]

CalibrationArtifact = Calibration
