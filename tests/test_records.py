"""Every exported record checks the type of its own numeric fields.

A record is a dataclass in `dmimo.__all__`; a numeric field is one annotated
int or float, or a tuple of them. Each record that takes outside input has a
valid sample below, and replacing any numeric field of it with a boolean or
a numeric string must raise InvalidInputError. A new record has to be listed
here, so it cannot skip the check.
"""

import dataclasses
import typing

import numpy as np
import pytest

import dmimo
from dmimo import (
    CapacityResult,
    CdfTable,
    CellAggregate,
    DegenerateRecord,
    ExperimentConfig,
    InvalidInputError,
    PowerAllocation,
    Region,
    ResultRow,
    RngHandle,
    Scene,
    SceneSource,
    SnrSpec,
    UserLayout,
    default_scene,
)

SAMPLES = {
    Region: Region(origin=(0.0, 0.0, 0.8), width=2.0, depth=3.0),
    Scene: default_scene("mixed"),
    UserLayout: UserLayout(np.array([[0.0, 0.0, 0.8], [1.0, 0.0, 0.8]]), 0.5, 2.0),
    SceneSource: SceneSource(default_scene()),
    ExperimentConfig: ExperimentConfig(SceneSource(default_scene()), (8,), (1,), (0.0,), (2,), 1, 1),
    CdfTable: CdfTable(np.arange(3.0), np.array([0.25, 0.5, 0.75]), 4, 1),
    SnrSpec: SnrSpec(10.0),
    PowerAllocation: PowerAllocation([0.25, 0.75], 1.0),
    RngHandle: RngHandle(1, 2),
}

# results the toolkit builds itself from checked inputs; ResultRow.value is
# NaN in a degenerate row, which check_number would reject
PRODUCED = {CapacityResult, ResultRow, DegenerateRecord, CellAggregate}


def _is_numeric(hint) -> bool:
    if hint in (int, float):
        return True
    args = typing.get_args(hint)
    return typing.get_origin(hint) is tuple and any(_is_numeric(a) for a in args)


def numeric_fields(cls) -> list:
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if _is_numeric(hints[f.name])]


def test_every_exported_numeric_record_is_listed():
    records = {
        obj
        for obj in (getattr(dmimo, name) for name in dmimo.__all__)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and numeric_fields(obj)
    }
    assert records == set(SAMPLES) | PRODUCED


@pytest.mark.parametrize(
    "cls, field",
    [(cls, field) for cls in SAMPLES for field in numeric_fields(cls)],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
@pytest.mark.parametrize("value", [True, "1"])
def test_numeric_field_rejects_wrong_type(cls, field, value):
    with pytest.raises(InvalidInputError, match=f"^{field}"):
        dataclasses.replace(SAMPLES[cls], **{field: value})
