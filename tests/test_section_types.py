"""Every field of the six section types, built from Python, is checked.

Each row sets one field of a valid value to a nan, an infinite or an
out-of-range value, and the type must raise the ``FieldError`` that names
that field.  A row that cannot occur for a field (nan for a choice of
names) is left out, and so is an out-of-range row for a field with no
range.  The config file reaches the same checks through
``ExperimentConfig.from_text`` (``tests/test_config_cli.py``).
"""

import dataclasses

import pytest

from trhreg.config import (AttackConfig, FieldError, MeasureConfig,
                           PacBayesConfig, RobustLossKind, TrainConfig,
                           TrHConfig)

NAN, INF = float("nan"), float("inf")
NUMBER = [NAN, INF]  # every number field's non-finite rows

# a valid value of each type, which each row changes in one field
VALID = {
    RobustLossKind: {"variant": "at"},
    AttackConfig: {"delta": 0.1},
    TrHConfig: {},
    TrainConfig: {"epochs": 1, "base_lr": 0.1},
    PacBayesConfig: {"sigma0_sq": 0.2, "beta": 10.0},
    MeasureConfig: {"mode": "top"},
}

BAD = {
    RobustLossKind: {
        "variant": ["unknown"],
        "penalty": NUMBER + [-1.0],
    },
    AttackConfig: {
        "delta": NUMBER + [-0.1],
        "steps": NUMBER + [0],
        "norm": ["l1"],
        "step_size": NUMBER + [0.0],
        "restarts": NUMBER + [0],
        "inner_loss": ["mse"],
        "clamp": [(NAN, 1.0), (0.0, NAN), (1.0, -1.0)],
        "random_start": NUMBER + [2],
    },
    TrHConfig: {
        "lam": NUMBER + [-0.1],
        "schedule": ["bogus"],
        "stop_grad_clean": NUMBER + [2],
        "full_coeff": NUMBER + [-1.0],
    },
    TrainConfig: {
        "epochs": NUMBER + [0],
        "base_lr": NUMBER + [0.0],
        "batch_size": NUMBER + [-1],
        "momentum": NUMBER + [1.0],
        "warmup_iters": NUMBER + [-1],
        "lr_decay": ["step"],
        "lr_milestones": [(0.5, NAN), (INF,), (0.5, 1.5)],
        "lr_drop": NUMBER + [0.0],
        "gamma": NUMBER + [-0.1],
        "seed": NUMBER + [-1],
        "baseline": ["sam"],
        "swa_alpha": NUMBER + [1.0],
        "awp_delta": NUMBER + [0.0],
    },
    PacBayesConfig: {
        "sigma0_sq": NUMBER + [0.0],
        "beta": NUMBER + [-1.0],
        "c_const": NUMBER + [-INF],
    },
    MeasureConfig: {
        "mode": ["layers"],
        "every": NUMBER + [0],
        "probes": NUMBER + [0],
    },
}
ROWS = [(cls, field, value) for cls, fields in BAD.items()
        for field, values in fields.items() for value in values]
_IDS = [f"{cls.__name__}.{field}={value!r}" for cls, field, value in ROWS]

# values at the edge of a field's range, which construct
EDGE = [
    (RobustLossKind, "penalty", 6.0),
    (AttackConfig, "delta", 0.0),  # the no-attack evaluation
    (AttackConfig, "clamp", (0.0, 0.0)),
    (AttackConfig, "clamp", (-INF, 1.0)),
    (AttackConfig, "clamp", (0.0, INF)),
    (AttackConfig, "clamp", (-INF, INF)),
    (TrainConfig, "lr_milestones", (0.0, 1.0)),
]
_EDGE_IDS = [f"{cls.__name__}.{field}={value!r}" for cls, field, value in EDGE]


@pytest.mark.parametrize("cls,field,value", ROWS, ids=_IDS)
def test_bad_value_names_its_field(cls, field, value):
    with pytest.raises(FieldError) as info:
        cls(**{**VALID[cls], field: value})
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} must be in ")


@pytest.mark.parametrize("cls,field,value", EDGE, ids=_EDGE_IDS)
def test_edge_value_constructs(cls, field, value):
    assert getattr(cls(**{**VALID[cls], field: value}), field) == value


def test_every_field_has_rows():
    for cls, fields in BAD.items():
        assert set(fields) == {f.name for f in dataclasses.fields(cls)}
