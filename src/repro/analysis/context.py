"""The resolution context shared by all analysis passes.

Passes never resolve names themselves; they ask the context, which wraps

* a schema resolver (a mapping or a callable from cube names to schemas)
  — possibly absent, in which case schema-dependent checks skip;
* a :class:`~repro.functions.registry.FunctionRegistry` (defaults to the
  library registry) for using/labels function checks;
* optionally an engine, enabling level-property resolution for unqualified
  using-clause references that are not measures;
* extra labeling names the caller knows about (e.g. session-defined specs).

``strict`` controls how an unresolvable ``with`` cube is reported: an error
(the statement cannot run here) or a mere info note (linting a file whose
cubes are registered elsewhere, e.g. an example script that builds its own
engine).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Union

from ..core.errors import ReproError
from ..core.schema import CubeSchema
from ..functions.registry import FunctionRegistry, default_registry


class AnalysisContext:
    """Name-resolution services for statement and plan passes."""

    def __init__(
        self,
        schemas: Union[
            Mapping[str, CubeSchema], Callable[[str], CubeSchema], None
        ] = None,
        registry: Optional[FunctionRegistry] = None,
        engine: Optional[Any] = None,
        known_labelings: Iterable[str] = (),
        strict: bool = True,
    ) -> None:
        self.schemas = schemas
        self.registry = registry if registry is not None else default_registry()
        self.engine = engine
        self.known_labelings = {name.lower() for name in known_labelings}
        self.strict = bool(strict)

    @property
    def can_resolve_cubes(self) -> bool:
        """Whether a schema resolver was supplied at all."""
        return self.schemas is not None

    def resolve(self, cube_name: str) -> Optional[CubeSchema]:
        """The schema of a cube, or ``None`` when it cannot be resolved."""
        if self.schemas is None:
            return None
        try:
            if callable(self.schemas):
                return self.schemas(cube_name)
            return self.schemas[cube_name]
        except (KeyError, ReproError):
            return None

    def knows_labeling(self, name: str) -> bool:
        """Whether a labels-clause name resolves to *something* callable."""
        return name.lower() in self.known_labelings or self.registry.has(name)

    @classmethod
    def for_session(cls, session: Any, strict: bool = True) -> "AnalysisContext":
        """A context bound to an :class:`~repro.api.AssessSession`."""
        return cls(
            schemas=lambda name: session.engine.cube(name).schema,
            registry=session.registry,
            engine=session.engine,
            known_labelings=tuple(session._named_specs),
            strict=strict,
        )

    @classmethod
    def for_engines(
        cls, engines: Iterable[Any], strict: bool = True
    ) -> "AnalysisContext":
        """A context resolving cubes across several engines (the lint CLI
        loads every demo cube so statements over any of them check out)."""
        union = _EngineUnion(engines)

        def resolve(name: str) -> CubeSchema:
            return union.cube(name).schema

        return cls(schemas=resolve, engine=union, strict=strict)


class _EngineUnion:
    """Duck-typed engine over several engines, first match wins."""

    def __init__(self, engines: Iterable[Any]) -> None:
        self.engines = list(engines)

    def _owner(self, source: str) -> Optional[Any]:
        for engine in self.engines:
            if engine.has_cube(source):
                return engine
        return None

    def cube(self, source: str) -> Any:
        owner = self._owner(source)
        if owner is None:
            raise KeyError(source)
        return owner.cube(source)

    def has_property(self, source: str, name: str) -> bool:
        owner = self._owner(source)
        return owner is not None and owner.has_property(source, name)
