"""Declarative technique specs: the ``BASE+stage:param`` grammar.

The paper evaluates six monolithic techniques; a spec may stack a
policy stage on top of one.  :class:`TechniqueSpec` is the one parser
every entry point (harness, CLI, ``repro.api``, fault campaigns) routes
through: a frozen, serializable value describing a base technique plus
an ordered stack of policy stages.  The one stage is ``victim`` (a
victim cache behind SC); ``nhit``, ``cutoff`` and ``clean`` were
removed, and naming one is an error that says so.

Grammar (see DESIGN.md §14)::

    spec   := base ("+" stage)*
    base   := "ER" | "LA" | "AT" | "SC" | "SC-offline" | "BEST"
    stage  := name (":" int)?          # int >= 0; omitted -> default

Examples: ``SC``, ``SC+victim``, ``SC-offline+victim:4``.

``parse``/``format`` round-trip exactly (property-tested with
hypothesis); ``to_dict``/``from_dict`` give the deterministic form used
for :class:`~repro.experiments.cache.ResultCache` sha256 keys.
A degenerate stage parameter (``victim:0``) is dropped at factory time,
so ``SC+victim:0`` builds the *same* bare
:class:`~repro.cache.policies.SoftwareCacheTechnique` as plain ``SC``
and produces bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.common.errors import ConfigurationError, require_int
from repro.cache.adaptive import AdaptiveConfig
from repro.cache.policies import TECHNIQUES, PersistenceTechnique, _base_factory


@dataclass(frozen=True)
class StageInfo:
    """Registry entry describing one composable policy stage."""

    name: str
    default: int
    #: Parameter values below this make the stage a guaranteed no-op;
    #: the factory drops such stages so degenerate specs build the bare
    #: base technique (bit-identical results to the un-staged spec).
    noop_below: int
    #: Base techniques the stage composes with.
    bases: Tuple[str, ...]
    param_doc: str
    doc: str


#: The composable policy stages, in their canonical documentation order.
STAGES: Dict[str, StageInfo] = {
    info.name: info
    for info in (
        StageInfo(
            name="victim",
            default=16,
            noop_below=1,
            bases=("SC", "SC-offline"),
            param_doc="victim-cache entries",
            doc=(
                "victim cache: evicted lines park in a small LRU buffer "
                "instead of flushing; a re-store rescues the line back "
                "into the base cache, overflow flushes the oldest entry"
            ),
        ),
    )
}


#: Stages that composed here once and were deleted: by the policy zoo's
#: own numbers none was worth its code over plain SC (DESIGN.md §14).
REMOVED_STAGES = ("nhit", "cutoff", "clean")


def _stage_info(name: str, text: str) -> StageInfo:
    """The registry entry of stage ``name`` in spec ``text``."""
    info = STAGES.get(name)
    if info is not None:
        return info
    if name in REMOVED_STAGES:
        raise ConfigurationError(
            f"policy stage {name!r} in technique spec {text!r} was removed "
            f"(DESIGN.md §14); the stages are {tuple(STAGES)}"
        )
    raise ConfigurationError(
        f"unknown policy stage {name!r} in technique spec {text!r}; "
        f"expected one of {tuple(STAGES)}"
    )


def _parse_stage_token(token: str, text: str) -> Tuple[str, int]:
    """Decode one ``name`` / ``name:int`` stage token of spec ``text``."""
    name, sep, param_text = token.partition(":")
    info = _stage_info(name, text)
    if not sep:
        return name, info.default
    try:
        param = int(param_text)
    except ValueError:
        raise ConfigurationError(
            f"stage {name!r} in technique spec {text!r} takes an integer "
            f"parameter ({info.param_doc}), got {param_text!r}"
        ) from None
    return name, param


@dataclass(frozen=True)
class TechniqueSpec:
    """A base technique plus an ordered stack of policy stages.

    Frozen and hashable; ``str()`` gives the canonical spec string and
    :meth:`parse` accepts it back (exact round-trip).  Construction
    validates the base name, stage names, parameter ranges, duplicate
    stages and base/stage compatibility, raising
    :class:`~repro.common.errors.ConfigurationError` naming the bad
    stage or parameter — the same error text at every entry point.
    """

    base: str
    stages: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.base not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {self.base!r}; expected one of {TECHNIQUES}"
            )
        stages = tuple((str(n), p) for n, p in self.stages)
        object.__setattr__(self, "stages", stages)
        text = self._format(self.base, stages)
        seen = set()
        for name, param in stages:
            info = _stage_info(name, text)
            if name in seen:
                raise ConfigurationError(
                    f"duplicate policy stage {name!r} in technique spec {text!r}"
                )
            seen.add(name)
            require_int(f"stage {name!r} parameter ({info.param_doc})", param, 0)
            if self.base not in info.bases:
                raise ConfigurationError(
                    f"stage {name!r} requires a base technique in "
                    f"{info.bases}, not {self.base!r}"
                )

    # -- parse / format --------------------------------------------------

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
        tokens = spec.split("+")
        base = tokens[0]
        if base not in TECHNIQUES:
            raise ConfigurationError(
                f"unknown technique {base!r}; expected one of {TECHNIQUES}"
            )
        stages = tuple(_parse_stage_token(tok, spec) for tok in tokens[1:])
        return cls(base, stages)

    @staticmethod
    def _format(base: str, stages: Tuple[Tuple[str, int], ...]) -> str:
        return "+".join([base] + [f"{n}:{p}" for n, p in stages])

    def format(self) -> str:
        """The canonical spec string (parameters always explicit)."""
        return self._format(self.base, self.stages)

    def __str__(self) -> str:
        return self.format()

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        """Deterministic JSON-ready form (cache keys)."""
        return {
            "base": self.base,
            "stages": [[name, param] for name, param in self.stages],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TechniqueSpec":
        keys = set(data)
        if keys != {"base", "stages"}:
            raise ConfigurationError(
                f"bad TechniqueSpec dict: expected keys base/stages, "
                f"got {sorted(keys)}"
            )
        return cls(data["base"], tuple((n, p) for n, p in data["stages"]))

    # -- introspection ---------------------------------------------------

    def stage_param(self, name: str) -> Optional[int]:
        """The parameter of stage ``name``, or ``None`` if absent."""
        for stage, param in self.stages:
            if stage == name:
                return param
        return None

    def effective_stages(self) -> Tuple[Tuple[str, int], ...]:
        """The stages that actually do anything (no-op params dropped)."""
        return tuple(
            (name, param)
            for name, param in self.stages
            if param >= STAGES[name].noop_below
        )


def list_techniques() -> Dict:
    """Machine-readable catalogue of bases, stages and valid params.

    Exported through ``repro.api`` so tools can enumerate the spec
    grammar without importing the cache layer.
    """
    return {
        "bases": list(TECHNIQUES),
        "stages": {
            info.name: {
                "default": info.default,
                "noop_below": info.noop_below,
                "bases": list(info.bases),
                "param": info.param_doc,
                "doc": info.doc,
            }
            for info in STAGES.values()
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
    :class:`~repro.common.errors.ConfigurationError` naming it.  Specs
    whose stages are all no-ops (``SC+victim:0``) return the bare
    base factory, so their results are bit-identical to the un-staged
    spec.
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
    base_factory = _base_factory(
        parsed.base, sc_fixed_size=sc_fixed_size, adaptive_config=adaptive_config
    )
    active = parsed.effective_stages()
    if not active:
        return base_factory
    from repro.cache.stages import StagedTechnique

    name = str(parsed)

    def factory(tid: int) -> PersistenceTechnique:
        return StagedTechnique(base_factory(tid), name=name, stages=active)

    return factory
