"""Exception types raised across the toolkit, and the check records share.

Everything derives from ToolkitError so callers can catch this package's
failures with one except clause while still telling the causes apart.

Records own their checks: each one's `__post_init__` calls check_fields,
then checks only its fields' ranges, in messages that start with the field
name, so a JSON reader can prefix the path it read (see config).
"""

import dataclasses
import functools
import numbers
import typing
from collections.abc import Iterable


class ToolkitError(Exception):
    """Base class for every error the toolkit raises deliberately."""


class InvalidInputError(ToolkitError):
    """An argument is malformed: bad value range, non-finite entries, ..."""


class DimensionError(InvalidInputError):
    """Array shapes are inconsistent or outside the supported range."""


class RankDeficiencyError(ToolkitError):
    """A channel matrix is too ill-conditioned to invert.

    When raised from a tensor sweep, `snapshot` and `subcarrier` locate the
    offending (t, l) slice.
    """

    def __init__(self, message, snapshot=None, subcarrier=None):
        super().__init__(message)
        self.snapshot = snapshot
        self.subcarrier = subcarrier


class DegenerateUserError(ToolkitError):
    """A user's channel carries no energy; `user` names the row."""

    def __init__(self, message, user=None):
        super().__init__(message)
        self.user = user


class PlacementError(InvalidInputError):
    """User positions violate the scene geometry."""


class InfeasibleLayoutError(ToolkitError):
    """Random user placement exhausted its rejection-sampling budget."""


class TopologyError(InvalidInputError):
    """A subarray request does not fit the access-point inventory."""


class ApCapacityError(TopologyError):
    """An access point has fewer antennas than the selection needs."""


class FormatError(ToolkitError):
    """A channel file is malformed.

    `byte_offset` locates the problem in the file; `expected_size` is set on
    truncation errors so callers can report the size the header promised.
    """

    def __init__(self, message, byte_offset=None, expected_size=None):
        super().__init__(message)
        self.byte_offset = byte_offset
        self.expected_size = expected_size


class EmptySampleError(InvalidInputError):
    """A statistic was requested over zero usable samples."""


class ConfigError(InvalidInputError):
    """An experiment configuration is invalid; the message names the field."""


def check_number(value, name: str, kind=float, error=InvalidInputError):
    """A Python or numpy number as `kind`: an integer for int, any real but NaN
    for float. Anything else, booleans included, raises `error` naming `name`."""
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, accepted) or value != value:
        noun = "an integer" if kind is int else "a number"
        raise error(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def _names_number(hint) -> bool:
    if hint in (int, float):
        return True
    return typing.get_origin(hint) is tuple and _names_number(typing.get_args(hint)[0])


@functools.cache
def _numeric_fields(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    fields = [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
    return tuple((name, hint) for name, hint in fields if _names_number(hint))


def _checked(value, hint, name: str, error):
    if hint in (int, float):
        return check_number(value, name, hint, error)
    # numeric tuples hold one kind of item: coordinates, or triples of them
    if not isinstance(value, Iterable):
        raise error(f"{name} must be a sequence of numbers, got {value!r}")
    item = typing.get_args(hint)[0]
    return tuple(_checked(v, item, f"{name}[{i}]", error) for i, v in enumerate(value))


def check_fields(record, error=InvalidInputError) -> None:
    """Store every field of frozen dataclass `record` annotated int, float or
    a tuple of them as checked by check_number; a field of the wrong type
    raises `error` naming it, as in `origin[2] must be a number, got True`."""
    for name, hint in _numeric_fields(type(record)):
        object.__setattr__(record, name, _checked(getattr(record, name), hint, name, error))
