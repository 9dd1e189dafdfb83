"""The contract of the library's result records.

Each record is an immutable named tuple with the fields pinned below,
in that order. Its repr reads ``Name(field=value, ...)``, which
``tests/fingerprint.py`` digests, and it survives a pickle round trip,
as a result sent between the processes of a pool must.
"""

import pickle

import pytest

from relegas import kinematics, medium_finite_t, numerics, responses

# field order of each record, kept from when the records were frozen
# dataclasses, so that positional construction and reprs do not move
RECORD_FIELDS = [
    (kinematics.KinematicPoint, ("a", "b", "c2", "gamma2", "d2")),
    (kinematics.FermiSurface, ("xF", "yF")),
    (kinematics.SubregionLabel, ("label", "x_lower", "x_upper")),
    (medium_finite_t.ResponseScalars, ("B", "D", "A", "C")),
    (
        responses.ResponseTensors,
        ("eps", "nu", "eps_prime", "nu_prime", "tau", "sigma", "eps_L", "nu_L"),
    ),
    (responses.RootSample, ("b", "root_a", "residual", "im_at_root")),
    (responses.DispersionBranch, ("mode", "samples", "plasma_frequency")),
    (
        responses.GridCell,
        (
            "a",
            "b",
            "region",
            "subregion",
            "re_eps_L",
            "im_eps_L",
            "re_nu_L",
            "im_nu_L",
            "metamaterial",
            "reason",
        ),
    ),
    (numerics.QuadratureResult, ("value", "error_estimate", "evaluations", "converged")),
    (numerics.Bracket, ("lo", "hi")),
]


@pytest.mark.parametrize("cls, fields", RECORD_FIELDS, ids=[c.__name__ for c, _ in RECORD_FIELDS])
def test_record_contract(cls, fields):
    # one distinct value per field, of mixed types
    kinds = (lambda i: 0.25 * i - 1.0, lambda i: complex(i, -0.5), lambda i: f"v{i}")
    values = [kinds[i % 3](i) for i in range(len(fields))]
    rec = cls(*values)
    assert cls._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1.0)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({body})"
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls
    assert back == rec
