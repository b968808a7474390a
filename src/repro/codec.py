"""The one rule for writing a spec or report dataclass as JSON and back.

Every spec file the CLI reads (``--config``, ``design-risk --spec``) and
every spec or report a campaign writes goes through :func:`encode` and
:func:`decode`, driven by the dataclass's field types:

* fields are written in field order; enums by value;
* tuples and lists become JSON lists, and ``tuple[...]`` fields are read
  back as tuples, nested ones included;
* a nested dataclass, or an optional one (``X | None``), is written and
  read recursively;
* an ``np.ndarray`` field (optional or not) is written as a list and read
  back as a float array;
* anything else (numbers, strings, booleans, mappings) is kept as is.

:func:`decode` rejects a key the class does not have, at any depth, with
one ``ValueError`` that gives its dotted path and the valid fields.
:class:`Codec` hangs the pair on a dataclass as ``to_dict`` /
``from_dict``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from collections.abc import Mapping

import numpy as np

__all__ = ["Codec", "encode", "decode", "reject_unknown"]


def encode(value):
    """The JSON-ready form of ``value``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {key: encode(item) for key, item in value.items()}
    return value


@functools.cache
def _fields(cls) -> tuple[dict, list]:
    """``cls``'s init fields with their types, and the required ones."""
    hints = typing.get_type_hints(cls)
    init = [f for f in dataclasses.fields(cls) if f.init]
    required = [f.name for f in init if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    return {f.name: hints[f.name] for f in init}, required


def reject_unknown(keys, valid, path: str) -> None:
    """Raise the one ``ValueError`` for ``keys`` outside ``valid``."""
    unknown = sorted(set(keys) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown fields {unknown} at {path}; valid fields are "
            f"{sorted(valid)}"
        )


def decode(cls, payload, path: str | None = None,
           overrides: Mapping | None = None):
    """Build ``cls`` from an :func:`encode`-style mapping.

    ``path`` names ``payload`` in error messages (default: the class
    name); ``overrides`` are field values that win over the payload's.
    """
    path = path or cls.__name__
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"{path} must be a JSON object, got {type(payload).__name__}"
        )
    field_types, required = _fields(cls)
    reject_unknown(payload, field_types, path)
    kwargs = {name: _read(field_types[name], value, f"{path}.{name}")
              for name, value in payload.items()}
    kwargs.update(overrides or {})
    missing = [name for name in required if name not in kwargs]
    if missing:
        raise ValueError(f"missing fields {missing} at {path}")
    return cls(**kwargs)


def _read(tp, value, path: str):
    """``value`` read back as field type ``tp``."""
    if value is None:
        return None
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        options = [a for a in args if a is not type(None)]
        return _read(options[0], value, path) if len(options) == 1 else value
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_read(args[0], item, f"{path}[{i}]")
                         for i, item in enumerate(value))
        return tuple(value)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(value)
    if tp is np.ndarray:
        return np.asarray(value, dtype=float)
    return value


class Codec:
    """Mixin giving a dataclass ``to_dict`` and ``from_dict`` from its
    field types (see :mod:`repro.codec`)."""

    def to_dict(self) -> dict:
        """JSON-ready dict of every field; round-trips through
        :meth:`from_dict`."""
        return encode(self)

    @classmethod
    def from_dict(cls, payload, **overrides):
        """Build from a :meth:`to_dict`-style mapping; keyword
        ``overrides`` win over the payload, and an unknown key at any
        depth raises ``ValueError``."""
        return decode(cls, payload, overrides=overrides)
