"""Type-exact checks for frozen configuration dataclasses."""

from __future__ import annotations

import functools
from dataclasses import fields

from repro.errors import ConfigurationError


@functools.cache
def _int_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """``(name, optional)`` for each integer field of dataclass ``cls``
    (the config dataclasses use postponed annotations, so a field's
    type is its source text)."""
    return tuple(
        (f.name, f.type == "int | None")
        for f in fields(cls)
        if f.type in ("int", "int | None")
    )


def require_exact_ints(config) -> None:
    """Reject any ``int`` field of ``config`` whose value is not exactly
    an ``int`` (``None`` allowed where the annotation is optional).

    ``bool`` and integral ``float`` values compare and hash equal to an
    ``int`` but serialise differently (``true``, ``64.0``), so letting
    them through would give two equal configs two content digests.
    """
    for name, optional in _int_fields(type(config)):
        value = getattr(config, name)
        if type(value) is not int and not (optional and value is None):
            owner = getattr(config, "name", type(config).__name__)
            raise ConfigurationError(
                f"{owner}: {name} must be an int, got "
                f"{type(value).__name__} {value!r}"
            )
