import pytest

from tvglearn.errors import check_integer


@pytest.mark.parametrize("value, minimum, match", [
    (-1, 0, "k must be non-negative, got -1"),
    (0, 1, "k must be positive, got 0"),
    (1, 2, "k must be at least 2, got 1"),
    (True, 0, "k must be an integer, got True"),
], ids=["non-negative", "positive", "at least 2", "bool"])
def test_check_integer_bounds(value, minimum, match):
    with pytest.raises(ValueError, match=match):
        check_integer("k", value, minimum)
    check_integer("k", minimum, minimum)  # the bound itself passes
