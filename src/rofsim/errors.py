"""Exception types raised across the simulator."""


class RofsimError(Exception):
    """Base class for all simulator errors."""


class GridError(RofsimError):
    """Waveforms or fields do not share the same time grid."""


class AliasError(RofsimError):
    """Requested frequency is at or above the grid Nyquist frequency."""


class ResolutionError(RofsimError):
    """Requested resolution bandwidth too small for the record length."""


class RangeError(RofsimError):
    """Requested frequency band lies outside the estimated spectrum."""


class FilterSpecError(RofsimError):
    """Invalid filter kind or edge ordering."""


class LockError(RofsimError):
    """QAM demodulator could not find the signal."""


class RailConflict(RofsimError):
    """Polarization beam combiner inputs occupy the same rail."""


class DelayRangeError(RofsimError):
    """Delay too large for the simulated record."""


class AttenuatorInfeasible(RofsimError):
    """Cancellation condition requires attenuation above unity."""


class SimulationError(RofsimError):
    """Simulation produced a non-finite objective."""


class ScenarioError(RofsimError):
    """Scenario file failed to parse or validate."""


class AxisError(RofsimError):
    """Sweep axis does not name a numeric scenario key."""


class TapError(RofsimError):
    """Unknown spectrum tap name."""
