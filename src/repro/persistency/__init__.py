"""Persistency-model designs: the three baselines plus helpers.

The proposed design itself lives in :mod:`repro.core.pmem_spec`.
"""

from typing import Dict, Type

from .base import Design, PersistLog, UnsupportedOp
from .dpo import DPO, DropWritebacksPolicy
from .hops import HOPS, CountingBloom, HOPSPMCPolicy
from .intel_x86 import IntelX86Epoch
from .strandweaver import StrandWeaver

__all__ = [
    "CountingBloom", "DPO", "Design", "DropWritebacksPolicy", "HOPS",
    "HOPSPMCPolicy", "IntelX86Epoch", "PersistLog", "StrandWeaver",
    "UnsupportedOp",
]


def design_classes() -> Dict[str, Type[Design]]:
    """Every name :func:`design_by_name` accepts, with its class."""
    from ..core.pmem_spec import PMEMSpec
    return {
        "IntelX86": IntelX86Epoch,
        "DPO": DPO,
        "HOPS": HOPS,
        "PMEM-Spec": PMEMSpec,
        "PMEMSpec": PMEMSpec,
        "StrandWeaver": StrandWeaver,
    }


def design_by_name(name: str) -> Design:
    """Factory used by the harness: 'IntelX86' | 'DPO' | 'HOPS' | 'PMEM-Spec'."""
    designs = design_classes()
    if name not in designs:
        raise KeyError(f"unknown design {name!r}; "
                       f"choose from {sorted(designs)}")
    return designs[name]()
