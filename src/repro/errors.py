"""Exception hierarchy for the X-FTL reproduction.

Every layer of the stack (flash chip, FTL, device, file system, database)
raises subclasses of :class:`ReproError` so callers can catch errors at the
granularity they care about.  :class:`PowerFailure` is special: it is raised
by the crash-injection machinery (:mod:`repro.sim.crash`) to simulate a power
outage at an arbitrary point, and it deliberately does *not* inherit from
:class:`ReproError` so ordinary error handling never swallows it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FlashError(ReproError):
    """Violation of NAND flash programming rules (e.g. rewrite w/o erase)."""


class FlashGeometryError(FlashError):
    """An address is outside the chip geometry."""


class FtlError(ReproError):
    """FTL-level failure (out of space, unknown logical page, ...)."""


class OutOfSpaceError(FtlError):
    """The device has no free flash blocks left, even after garbage collection."""


class AgingError(ReproError):
    """Device aging (``repro.bench.aging``) could not reach its free-pool floor."""


class CrashPlanError(ReproError):
    """A crash point armed with an occurrence count below 1 (it would fire on
    the first hit, not the one named)."""


class TransactionError(ReproError):
    """Misuse of the transactional command set (unknown tid, double commit, ...)."""


class DeviceError(ReproError):
    """Storage-device command error (device powered off, bad command, ...)."""


class FsError(ReproError):
    """File-system failure."""


class FileNotFoundFsError(FsError):
    """The named file does not exist in the simulated file system."""


class FileExistsFsError(FsError):
    """The named file already exists."""


class DatabaseError(ReproError):
    """SQLite-engine level failure."""


class SqlError(DatabaseError):
    """SQL parse or binding error."""


class SchemaError(DatabaseError):
    """Unknown table/column/index or conflicting DDL."""


class IntegrityError(DatabaseError):
    """Constraint violation (duplicate primary key, ...)."""


class CorruptionError(ReproError):
    """On-media structures failed validation (bad checksum, torn page, ...)."""


class PowerFailure(BaseException):
    """Simulated power outage.

    Raised from inside the storage stack when a scheduled crash point fires.
    Inherits from ``BaseException`` so that ``except ReproError`` /
    ``except Exception`` blocks in the stack do not accidentally absorb it;
    tests and the benchmark harness catch it explicitly.
    """

    def __init__(self, message: str = "simulated power failure") -> None:
        super().__init__(message)
