"""Property tests on random objects past the exhaustive range, n = 5, 6:
the module and derived routes agree projective by projective, and no
complex decider depends on the shift.  Also the JSON object format: it
round-trips, and a non-integer field or a missing summand key is an input
error.  Derandomized with a bounded number of examples, so every run draws
the same objects."""

import pytest
from hypothesis import given, settings, strategies as st

from ddcp.classify import make_T, make_V
from ddcp.cli import object_from_json, object_to_json
from ddcp.deciders import verify_homology_corners
from ddcp.derived import DerivedObject
from ddcp.quiver import Algebra, InputError
from oracles import COMPLEX_DECIDERS, window_atoms

bounded = settings(derandomize=True, database=None, max_examples=25, deadline=None)
sizes = pytest.mark.parametrize("n", [5, 6])


@st.composite
def objects(draw, n):
    """A basic n-summand object over shifts {0, 1}: random, or a member of
    the V_m or T_i family, so that passing verdicts are drawn too."""
    alg = Algebra(n)
    kind = draw(st.sampled_from(["random", "V", "T"]))
    if kind == "V":
        return make_V(alg, draw(st.integers(1, n)))
    if kind == "T":
        return make_T(alg, draw(st.integers(1, n - 1)))
    atoms = window_atoms(alg, (0, 1))
    pairs = st.lists(st.sampled_from(atoms), min_size=n, max_size=n, unique=True)
    return DerivedObject(alg, draw(pairs))


def outcome(report):
    return report.verdict, report.applicable, [pr.verdict for pr in report.projectives]


@sizes
@bounded
@given(data=st.data())
def test_routes_agree_on_random_objects(n, data):
    x = data.draw(objects(n))
    outcomes = [outcome(decide(x)) for decide in COMPLEX_DECIDERS]
    assert outcomes[::2] == outcomes[1::2]  # module route == derived route


@sizes
@bounded
@given(data=st.data())
def test_complex_verdicts_are_shift_invariant(n, data):
    x = data.draw(objects(n))
    k = data.draw(st.integers(-3, 3))
    for decide in (*COMPLEX_DECIDERS, verify_homology_corners):
        assert outcome(decide(x)) == outcome(decide(x.shifted(k)))


@st.composite
def any_objects(draw, min_size=0):
    """A random object, basic or not, n <= 6, with shifts in -3..3."""
    alg = Algebra(draw(st.integers(1, 6)))
    atoms = window_atoms(alg, range(-3, 4))
    pairs = st.lists(st.sampled_from(atoms), min_size=min_size, max_size=8)
    return DerivedObject(alg, draw(pairs))


non_integers = st.one_of(
    st.text(alphabet="0123456789 _-+.x", max_size=3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@bounded
@given(x=any_objects())
def test_object_json_round_trips(x):
    assert object_from_json(object_to_json(x)) == x


@bounded
@given(x=any_objects(min_size=1), value=non_integers, data=st.data())
def test_object_json_rejects_non_integers_and_missing_keys(x, value, data):
    index = data.draw(st.integers(0, len(x) - 1))
    for key in ("n", "a", "b", "shift"):
        doc = object_to_json(x)
        (doc if key == "n" else doc["summands"][index])[key] = value
        with pytest.raises(InputError):
            object_from_json(doc)
    for key in ("a", "b", "shift"):
        doc = object_to_json(x)
        del doc["summands"][index][key]
        with pytest.raises(InputError):
            object_from_json(doc)
