import pytest

from qemc.errors import ConfigError
from qemc.svg import render_line_chart


@pytest.mark.parametrize("series", [[], [("cut", [], [])]])
def test_no_points_is_a_config_error(series):
    with pytest.raises(ConfigError):
        render_line_chart(series)
