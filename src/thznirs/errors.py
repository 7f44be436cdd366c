"""Exception types shared across the toolkit: every broken input rule, the
one-panel rule of ``scene.nirs_panel`` among them, raises ``ValidationError``;
the other two errors are outcomes a caller handles."""


class ThzNirsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ThzNirsError, ValueError):
    """Input or a domain object breaks a rule; the message names the rule (and file)."""


class NoSignalError(ThzNirsError, ValueError):
    """Every selected profile entry is noise; no power to sum."""


class NoSpecularGeometryError(ThzNirsError, ValueError):
    """No specular reflection point exists on the panel for this Tx/Rx pair."""

