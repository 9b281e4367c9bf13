import numpy as np
import pytest

from egocal.errors import NumericalFailure, SingularInput, numerical


def test_numerical_names_a_lapack_failure_with_it_as_the_cause():
    error = np.linalg.LinAlgError("Eigenvalues did not converge")
    with pytest.raises(NumericalFailure, match="^polish: Eigenvalues did not converge$") as caught:
        with numerical("polish"):
            raise error
    assert caught.value.__cause__ is error


@pytest.mark.parametrize("error", [ValueError("x"), SingularInput("singular"), KeyError("k")])
def test_numerical_lets_any_other_exception_through_unchanged(error):
    with pytest.raises(type(error)) as caught:
        with numerical("polish"):
            raise error
    assert caught.value is error
    assert caught.value.__cause__ is None


def test_numerical_does_nothing_without_an_exception():
    ran = []
    with numerical("polish"):
        ran.append(True)
    assert ran == [True]
