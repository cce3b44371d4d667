"""One rule for pulse angles and coupling strengths: a real number, or a ValueError.

A bool, a string, ``None`` or a complex number is not an angle: each raises a
ValueError naming the field, rather than a TypeError from ``math.isfinite``,
and a bool is not read as 0 or 1.  Sequence files reject such angles as
malformed (exit 2) through ``sequence_from_dict``.  The three-body angle phi
is checked by the same rule, under its own name, before any pulse is built.
"""

import re

import numpy as np
import pytest

from qent import CouplingModel, IsingCoupling, Rotation, three_body_sequence, zzz_unitary

BUILDERS = {
    "Rotation": lambda a: Rotation("x", a, 0),
    "IsingCoupling": lambda a: IsingCoupling(a, (0, 1)),
    "CouplingModel": lambda a: CouplingModel(a),
}
PHI_TAKERS = {
    "three_body_sequence": lambda phi: three_body_sequence(phi, 0, 1, 2),
    "zzz_unitary": lambda phi: zzz_unitary(phi, 0, 1, 2, 3),
}
BAD = [True, np.bool_(False), "0.1", "1", None, 1j, complex(0.5, 0.0)]
BAD_IDS = ["bool", "numpy-bool", "str", "str-int", "none", "imaginary", "complex-real"]


def _value(built):
    return built.g if isinstance(built, CouplingModel) else built.angle


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_non_real_angle_rejected(builder, bad):
    with pytest.raises(ValueError, match="must be a real number"):
        BUILDERS[builder](bad)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=str)
@pytest.mark.parametrize("builder", BUILDERS)
def test_non_finite_angle_rejected(builder, value):
    with pytest.raises(ValueError, match="finite"):
        BUILDERS[builder](value)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5), 2, np.int64(2)],
                         ids=repr)
@pytest.mark.parametrize("builder", BUILDERS)
def test_real_numbers_accepted(builder, value):
    built = BUILDERS[builder](value)
    assert type(_value(built)) is type(value) and _value(built) == value


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("taker", PHI_TAKERS)
def test_non_real_phi_rejected(taker, bad):
    with pytest.raises(ValueError, match="phi must be a real number"):
        PHI_TAKERS[taker](bad)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=str)
@pytest.mark.parametrize("taker", PHI_TAKERS)
def test_non_finite_phi_rejected_as_given(taker, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'phi must be finite, got {value!r}')}$"):
        PHI_TAKERS[taker](value)
