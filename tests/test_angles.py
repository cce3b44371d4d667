"""One rule for pulse angles and coupling strengths: a real number, or a ValueError.

A bool, a string, ``None`` or a complex number is not an angle: each raises a
ValueError naming the field, rather than a TypeError from ``math.isfinite``,
and a bool is not read as 0 or 1.  Sequence files reject such angles as
malformed (exit 2) through ``sequence_from_dict``'s own check.
"""

import numpy as np
import pytest

from qent import CouplingModel, IsingCoupling, Rotation

BUILDERS = {
    "Rotation": lambda a: Rotation("x", a, 0),
    "IsingCoupling": lambda a: IsingCoupling(a, (0, 1)),
    "CouplingModel": lambda a: CouplingModel(a),
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
