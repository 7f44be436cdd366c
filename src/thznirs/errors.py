"""Exception and warning types shared across the toolkit: every broken input
rule raises ``ValidationError``; the other two errors are outcomes a caller handles."""


class ThzNirsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ThzNirsError, ValueError):
    """Input or a domain object breaks a rule; the message names the rule (and file)."""


class NoSignalError(ThzNirsError, ValueError):
    """Every selected profile entry is noise; no power to sum."""


class NoSpecularGeometryError(ThzNirsError, ValueError):
    """No specular reflection point exists on the panel for this Tx/Rx pair."""


class NoNirsPanelWarning(UserWarning):
    """Angle-set query on a scene with no active reflector panel cell."""
