"""The engine registry: backends self-register under a public name.

The one mapping behind engine selection.  An engine class declares its
public name as a ``name`` class attribute and registers itself with the
:func:`register_engine` decorator at definition time — the registry
never has to enumerate backends, and third-party engines join the same
way:

>>> @register_engine
... class MyEngine(SlotEngineBase):
...     name = "mine"
...     ...

Lookups go through :func:`get_engine`;
:func:`~repro.radio.engine.make_network` remains the constructor-style
entry point.  This module deliberately imports nothing from the rest of
:mod:`repro.radio`, so any engine module can import it without cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TypeVar

from ..errors import ConfigurationError

_ENGINES: Dict[str, type] = {}

EngineClass = TypeVar("EngineClass", bound=type)


def register_engine(
    cls: Optional[EngineClass] = None, *, overwrite: bool = False
) -> "Callable[[EngineClass], EngineClass]":
    """Class decorator installing an engine under its ``name`` attribute.

    Usable bare (``@register_engine``) or parameterized
    (``@register_engine(overwrite=True)``).  The class must carry a
    non-empty ``name`` class attribute — that string is what
    :func:`get_engine`, :func:`~repro.radio.engine.make_network`, and
    ``ExperimentSpec.engine`` select by.
    """

    def install(engine_cls: EngineClass) -> EngineClass:
        name = getattr(engine_cls, "name", "")
        if not isinstance(name, str) or not name or name == "abstract":
            raise ConfigurationError(
                f"engine class {engine_cls.__name__} must define a public "
                f"'name' class attribute to register"
            )
        if not overwrite and name in _ENGINES:
            raise ConfigurationError(f"engine {name!r} is already registered")
        _ENGINES[name] = engine_cls
        return engine_cls

    if cls is not None:
        return install(cls)  # type: ignore[return-value]
    return install


def get_engine(name: str) -> type:
    """Look up an engine class by name, failing loudly when unknown."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_ENGINES))
