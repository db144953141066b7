"""Declarative technique specs: a base technique and its victim cache.

The paper evaluates six monolithic techniques; a spec names one, and may
put a victim cache behind SC.  :class:`TechniqueSpec` is the one parser
every entry point (harness, CLI, ``repro.api``, fault campaigns) routes
through: a frozen value ``(base, victim)``.  ``victim`` is the one policy
stage; ``nhit``, ``cutoff`` and ``clean`` were removed, and naming one is
an error that says so.

Grammar (see DESIGN.md §14)::

    spec   := base ("+" "victim" (":" int)?)?
    base   := "ER" | "LA" | "AT" | "SC" | "SC-offline" | "BEST"
                                       # int >= 0; omitted -> 16

Examples: ``SC``, ``SC+victim``, ``SC-offline+victim:4``.

``parse``/``format`` round-trip exactly (property-tested with
hypothesis); the canonical string is what cache keys and worker tasks
carry.  ``SC+victim:0`` builds the *same* bare
:class:`~repro.cache.policies.SoftwareCacheTechnique` as plain ``SC``
and produces bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.common.errors import ConfigurationError, require_int
from repro.cache.adaptive import AdaptiveConfig
from repro.cache.policies import TECHNIQUES, PersistenceTechnique, _base_factory


#: The one policy stage: a victim cache behind SC (DESIGN.md §14).
VICTIM = "victim"
VICTIM_DEFAULT = 16
VICTIM_BASES = ("SC", "SC-offline")
_VICTIM_PARAM = "victim-cache entries"

#: Stages that composed here once and were deleted: by the policy zoo's
#: own numbers none was worth its code over plain SC (DESIGN.md §14).
REMOVED_STAGES = ("nhit", "cutoff", "clean")


def _parse_victim_token(token: str, text: str) -> int:
    """The parameter of one ``victim`` / ``victim:int`` token of spec ``text``."""
    name, sep, param_text = token.partition(":")
    if name != VICTIM:
        if name in REMOVED_STAGES:
            raise ConfigurationError(
                f"policy stage {name!r} in technique spec {text!r} was removed "
                f"(DESIGN.md §14); the stages are {(VICTIM,)}"
            )
        raise ConfigurationError(
            f"unknown policy stage {name!r} in technique spec {text!r}; "
            f"expected one of {(VICTIM,)}"
        )
    if not sep:
        return VICTIM_DEFAULT
    try:
        return int(param_text)
    except ValueError:
        raise ConfigurationError(
            f"stage {name!r} in technique spec {text!r} takes an integer "
            f"parameter ({_VICTIM_PARAM}), got {param_text!r}"
        ) from None


@dataclass(frozen=True)
class TechniqueSpec:
    """A base technique, and the size of the victim cache behind it.

    Frozen and hashable; ``str()`` gives the canonical spec string and
    :meth:`parse` accepts it back (exact round-trip).  ``victim`` is
    ``None`` without a ``+victim`` stage.  Construction validates the
    base name, the parameter's range and the base it composes with,
    raising :class:`~repro.common.errors.ConfigurationError` naming the
    bad stage or parameter — the same error text at every entry point.
    """

    base: str
    victim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {self.base!r}; expected one of {TECHNIQUES}"
            )
        if self.victim is not None:
            require_int(f"stage {VICTIM!r} parameter ({_VICTIM_PARAM})", self.victim, 0)
            if self.base not in VICTIM_BASES:
                raise ConfigurationError(
                    f"stage {VICTIM!r} requires a base technique in "
                    f"{VICTIM_BASES}, not {self.base!r}"
                )

    @classmethod
    def parse(cls, spec: Union[str, "TechniqueSpec"]) -> "TechniqueSpec":
        """The one spec parser: a spec string (or spec, passed through).

        Raises :class:`~repro.common.errors.ConfigurationError` with the
        offending base, stage or parameter named.
        """
        if isinstance(spec, TechniqueSpec):
            return spec
        if not isinstance(spec, str):
            raise ConfigurationError(
                f"technique spec must be a string or TechniqueSpec, "
                f"got {type(spec).__name__}"
            )
        base, *tokens = spec.split("+")
        if base not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {base!r}; expected one of {TECHNIQUES}"
            )
        params = [_parse_victim_token(token, spec) for token in tokens]
        parsed = cls(base, params[0] if params else None)
        if len(params) > 1:
            text = "+".join([base] + [f"{VICTIM}:{p}" for p in params])
            raise ConfigurationError(
                f"duplicate policy stage {VICTIM!r} in technique spec {text!r}"
            )
        return parsed

    def format(self) -> str:
        """The canonical spec string (parameters always explicit)."""
        if self.victim is None:
            return self.base
        return f"{self.base}+{VICTIM}:{self.victim}"

    def __str__(self) -> str:
        return self.format()


def list_techniques() -> Dict:
    """Machine-readable catalogue of bases, stages and valid params.

    Exported through ``repro.api`` so tools can enumerate the spec
    grammar without importing the cache layer.
    """
    return {
        "bases": list(TECHNIQUES),
        "stages": {
            VICTIM: {
                "default": VICTIM_DEFAULT,
                "noop_below": 1,
                "bases": list(VICTIM_BASES),
                "param": _VICTIM_PARAM,
                "doc": (
                    "victim cache: evicted lines park in a small LRU buffer "
                    "instead of flushing; a re-store rescues the line back "
                    "into the base cache, overflow flushes the oldest entry"
                ),
            },
        },
        "grammar": "BASE(+stage(:int)?)*  e.g. SC+victim:16",
    }


#: The technique options: the *base* technique's keyword context.
TECHNIQUE_OPTIONS = ("sc_fixed_size", "adaptive_config")

#: Options that set an ablation once and were deleted with it: the paper
#: measures one value of each (DESIGN.md §6).
REMOVED_OPTIONS = (
    "table_size", "sc_initial_size", "use_clwb", "shared_adaptation", "hibernation"
)


def technique_factory(
    spec: Union[str, TechniqueSpec],
    *,
    sc_fixed_size: Optional[int] = None,
    adaptive_config: Optional[AdaptiveConfig] = None,
    **others,
) -> Callable[[int], PersistenceTechnique]:
    """Build a per-thread technique factory from a spec (the one path).

    Accepts a spec string or :class:`TechniqueSpec`; the keyword
    context (:data:`TECHNIQUE_OPTIONS`) configures the *base* technique,
    and any other keyword is a
    :class:`~repro.common.errors.ConfigurationError` naming it.
    ``SC+victim:0`` builds the bare base, so its results are
    bit-identical to plain ``SC``.
    """
    for name in others:
        if name in REMOVED_OPTIONS:
            raise ConfigurationError(
                f"technique option {name!r} was removed (DESIGN.md §6); "
                f"the options are {TECHNIQUE_OPTIONS}"
            )
        raise ConfigurationError(
            f"unknown technique option {name!r}; expected one of {TECHNIQUE_OPTIONS}"
        )
    parsed = TechniqueSpec.parse(spec)
    return _base_factory(
        parsed.base,
        victim=parsed.victim,
        name=str(parsed),
        sc_fixed_size=sc_fixed_size,
        adaptive_config=adaptive_config,
    )
