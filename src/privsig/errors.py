"""The error that the config loader and the settings dataclasses raise.

It lives below every other module, so that the solver's own settings can
raise it without importing the config loader.
"""
from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid config or settings: one message per problem, each led by its field path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _check_settings(section: str, obj, finite: tuple[str, ...], rules) -> None:
    """Raise ConfigError naming every problem of the settings object obj.

    Each field named in finite that is not a finite number gets the config
    loader's message for it, and each (field, ok, message) rule that does not
    hold gets its message; every message leads with section.field.
    """
    errors = [
        f"{section}.{name}: expected a finite number, got {getattr(obj, name)!r}"
        for name in finite if not math.isfinite(getattr(obj, name))
    ]
    errors += [f"{section}.{name}: {message}" for name, ok, message in rules if not ok]
    if errors:
        raise ConfigError(errors)
