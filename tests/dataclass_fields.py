"""Field-by-field helpers for serializer round-trip tests.

A round trip only proves a field survives if the field holds a value
its reader could not have guessed: a serializer that drops a field
still round-trips any object whose value equals the field's default.
:func:`off_default` builds objects with *every* field set away from its
default, and fails as soon as the dataclass grows a field the test does
not set, so a new field cannot slip past the round-trip tests unseen.
"""

import dataclasses


def field_names(cls):
    """The field names of a dataclass, as a set."""
    return {f.name for f in dataclasses.fields(cls)}


def _default(f):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


def off_default(cls, **values):
    """``cls(**values)``, checking every field is given a non-default value."""
    missing = field_names(cls) - set(values)
    assert not missing, f"{cls.__name__} fields not set: {sorted(missing)}"
    for f in dataclasses.fields(cls):
        assert values[f.name] != _default(f), (
            f"{cls.__name__}.{f.name} is set to its default"
        )
    return cls(**values)
