"""Exception types shared across the package."""


class KvroofError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(KvroofError, ValueError):
    """Invalid model/hardware specification or catalog file."""


class WorkloadError(KvroofError, ValueError):
    """Invalid trace, stream, or synthesis parameters."""


class SimulationError(KvroofError, ValueError):
    """Invalid simulator configuration or input stream."""


class RooflineError(KvroofError, ValueError):
    """Invalid roofline grid, or a grid whose intensities leave the float range."""
