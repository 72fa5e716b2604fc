import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import DomainError, GridFunction, TWO_PI
from fracspec.grid import even_grid_function


def test_values_are_read_only_copies():
    src = np.ones(8)
    g = GridFunction(src)
    src[0] = 99.0
    assert g.values[0] == 1.0
    with pytest.raises(ValueError):
        g.values[0] = 2.0


@pytest.mark.parametrize("num_points, values", [(5, [3, 2, 1, 2, 3]), (6, [3, 2, 1, 1, 2, 3])])
def test_even_grid_function_mirrors_into_its_own_values(num_points, values):
    half = np.array([3.0, 2.0, 1.0])
    g = even_grid_function(half, num_points, "half")
    assert g.values.tolist() == values and g.periodic
    assert not np.shares_memory(g.values, half)
    with pytest.raises(ValueError):
        g.values[0] = 2.0


def test_spacing_and_grid():
    g = GridFunction(np.zeros(5))
    assert g.spacing == pytest.approx(TWO_PI / 4)
    np.testing.assert_allclose(g.grid, np.linspace(0, TWO_PI, 5))


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        GridFunction(np.array([1.0]))
    with pytest.raises(DomainError):
        GridFunction(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        GridFunction(np.array([0.0, 1.0]), periodic=True)


#: any finite float64; EDGES are the signed zero, the subnormal and the largest ones
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
#: comments with line breaks, which csv_table writes one `# ` line each
COMMENTS = st.lists(st.text(alphabet=st.sampled_from("ab =#,\n\r\x0b\u2028")), max_size=4)


@given(st.lists(FINITE, min_size=2, max_size=64), st.booleans(), COMMENTS)
@example(EDGES, False, ["one\ntwo", "seed = 3\r\nlambda,value", ""])
@example(EDGES, True, [])
@settings(max_examples=100, deadline=None)
def test_csv_round_trip(values, periodic, comments):
    if periodic:
        values = values + [values[0]]
    g = GridFunction(np.array(values), periodic=periodic)
    back = GridFunction.from_csv_text(g.to_csv_text(comments=comments), periodic=periodic)
    assert back.values.tobytes() == g.values.tobytes()


def test_csv_skips_comments_and_header(tmp_path):
    g = GridFunction(np.array([1.0, 2.0, 3.0]))
    path = tmp_path / "g.csv"
    path.write_text(g.to_csv_text(comments=["version 0"]))
    text = path.read_text()
    assert text.startswith("# version 0\nlambda,value\n")
    back = GridFunction.from_csv(path)
    np.testing.assert_array_equal(back.values, g.values)


def test_csv_lambda_column_must_be_the_uniform_grid():
    # three rows mean the grid [0, pi, 2*pi]: the value given at 0.1 must not land at pi
    with pytest.raises(DomainError, match=r"'0\.1,2'"):
        GridFunction.from_csv_text("lambda,value\n0,1\n0.1,2\n6.283185307179586,1\n")
    # lambda written as 2*pi*k/(N-1) sits within an ulp of np.linspace and loads
    text = "".join(f"{TWO_PI * k / 4096:.17g},{k}\n" for k in range(4097))
    np.testing.assert_array_equal(GridFunction.from_csv_text(text).values, np.arange(4097.0))
