"""Memory subsystem: caches, PM device, PM controller, interconnects."""

from .cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    Cache,
    CacheLine,
    EvictedLine,
)
from .hierarchy import CacheHierarchy, LoadResult, MemoryImage, PMLoad
from .interconnect import (
    FlushPath,
    LockNetwork,
    PersistMessage,
    PersistPath,
    SpecIdCounter,
)
from .pm_complex import PMCComplex
from .pm_controller import PMController, PMCPolicy
from .pm_device import PMDevice

__all__ = [
    "Cache", "CacheHierarchy", "CacheLine", "EXCLUSIVE", "EvictedLine",
    "FlushPath", "INVALID", "LoadResult", "LockNetwork", "MODIFIED",
    "MemoryImage", "PMCComplex", "PMCPolicy", "PMController", "PMDevice",
    "PMLoad", "PersistMessage", "PersistPath", "SHARED", "SpecIdCounter",
]
