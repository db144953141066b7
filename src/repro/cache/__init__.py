"""The software write-combining cache and the six persistence techniques.

- :mod:`repro.cache.write_cache` — the resizable write-combining cache of
  cache-line addresses, over the O(1) hash-map + doubly-linked-list LRU
  the paper specifies (§III-C, "The Cache"): an ``OrderedDict``.
- :mod:`repro.cache.table` — Atlas's fixed-size direct-mapped table
  (§II-A), the state of the art the paper improves on.
- :mod:`repro.cache.adaptive` — the online controller: bursty sampling →
  MRC → knee → resize (§III-C).
- :mod:`repro.cache.policies` — the six techniques of §IV-A: ER, LA, AT,
  SC, SC-offline and BEST, and SC with a victim cache behind it.
- :mod:`repro.cache.spec` — the declarative ``BASE+victim:V`` spec
  grammar and the one technique factory every entry point uses.
"""

from repro.cache.write_cache import WriteCombiningCache
from repro.cache.table import AtlasTable
from repro.cache.adaptive import AdaptiveController, AdaptiveConfig
from repro.cache.policies import (
    PersistenceTechnique,
    EagerTechnique,
    LazyTechnique,
    AtlasTechnique,
    SoftwareCacheTechnique,
    VictimCacheTechnique,
    BestTechnique,
    TECHNIQUES,
)
from repro.cache.spec import TechniqueSpec, list_techniques, technique_factory

__all__ = [
    "WriteCombiningCache",
    "AtlasTable",
    "AdaptiveController",
    "AdaptiveConfig",
    "PersistenceTechnique",
    "EagerTechnique",
    "LazyTechnique",
    "AtlasTechnique",
    "SoftwareCacheTechnique",
    "VictimCacheTechnique",
    "BestTechnique",
    "TECHNIQUES",
    "TechniqueSpec",
    "list_techniques",
    "technique_factory",
]
