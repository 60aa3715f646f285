"""The CLI contract: every input ends in exit 0, 1 or 2, never in a traceback.

``main`` runs in process, so an exception that escapes it, which a user
would see as a traceback and exit 1, fails these properties outright.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadconc.cli import main
from quadconc.verifiers import CLAIM_IDS

# anything JSON can hold, for fields of the wrong type
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# exact values of every size, zero and negative included, and near-misses
RATIONALS = st.one_of(
    st.fractions(max_denominator=6).map(str),
    st.integers(4300, 5000).map(lambda k: "9" * k),
    st.sampled_from(["0", "-1", "0/1", "1/0", "0.5", "1e3", "", " 1", "+2", "-0"]),
)
# where a side point sits along its side: on a vertex, inside, or beyond
PARAMETERS = st.sampled_from([0, 1, Fraction(1, 2), Fraction(1, 3), -1, 2, Fraction(-1, 5)])
# a small grid makes repeated and collinear vertices common
GRID = st.integers(-2, 2)


def pair(x, y):
    return [str(x), str(y)]


@st.composite
def instance_documents(draw):
    scale = draw(st.sampled_from([1, 1, 1, 10 ** 1500]))
    vertices = [(draw(GRID) * scale, draw(GRID) * scale) for _ in range(4)]
    doc = {"vertices": {k: pair(*v) for k, v in zip("ABCD", vertices)}}
    if draw(st.booleans()):
        doc["ratios"] = {k: draw(RATIONALS) for k in "mnpq"}
    else:
        points = {}
        for k, u, v in zip("MNPQ", vertices, vertices[1:] + vertices[:1]):
            t = draw(PARAMETERS)
            points[k] = pair(u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))
        doc["points"] = points
    doc["checks"] = draw(st.sampled_from(["all", ["all"], [], ["seven_lines"], ["nope"], 3]))
    # break one field, or the whole document, with a value of the wrong type
    target = draw(st.sampled_from([None, None, "vertices", "ratios", "points", "checks", "A"]))
    if target == "A":
        doc["vertices"]["A"] = draw(JUNK)
    elif target is not None:
        doc[target] = draw(JUNK)
    return doc


INSTANCE_BYTES = st.one_of(
    instance_documents().map(lambda d: json.dumps(d).encode("utf-8")),
    JUNK.map(lambda d: json.dumps(d).encode("utf-8")),
    # raw bytes that are not UTF-8
    st.binary(max_size=20).map(lambda b: b"\xff" + b),
    instance_documents().map(lambda d: json.dumps(d).encode("utf-8").replace(b'"0"', b'"\xc30"')),
)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=io.StringIO())
        except SystemExit as exc:  # argparse rejects the arguments with exit 2
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=INSTANCE_BYTES)
@example(data=b"\xff\xfe{}")
# F2 and G2 are both ideal, so the line F2G2 is the line at infinity
@example(data=json.dumps({
    "vertices": {"A": ["0", "0"], "B": ["0", "1"], "C": ["1", "0"], "D": ["1", "2"]},
    "points": {"M": ["0", "1/3"], "N": ["1/2", "1/2"], "P": ["1", "2/3"], "Q": ["-1", "-2"]},
}).encode("utf-8"))
# N beyond C gives m n = -1, where the closed form of F1M1/M1G1 divides by zero
@example(data=json.dumps({
    "vertices": {"A": ["0", "0"], "B": ["0", "1"], "C": ["1", "0"], "D": ["1", "2"]},
    "points": {"M": ["0", "1/3"], "N": ["2", "-1"], "P": ["1", "1"], "Q": ["1/2", "1"]},
}).encode("utf-8"))
def test_verify_and_figure_exit_with_a_documented_code(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    for argv in (["verify", str(path)], ["figure", str(path), "-o", str(tmp_path / "x.svg")]):
        code, err = run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["crossed", "concave", "convex"]),
    target=st.sampled_from(CLAIM_IDS + ("nope", "")),
    budget=st.integers(-2, 6),
    seed=st.sampled_from([0, 1, -1, 2 ** 64 - 1, 2 ** 64]),
    bound=st.sampled_from([-1, 3, 4, 10, 10 ** 30]),
    ratio_bound=st.sampled_from([-1, 0, 1, 8, 10 ** 30]),
)
def test_counterexample_exits_with_a_documented_code(shape, target, budget, seed, bound,
                                                     ratio_bound):
    code, err = run(["counterexample", "--shape", shape, "--target", target,
                     "--budget", str(budget), "--seed", str(seed), "--bound", str(bound),
                     "--ratio-bound", str(ratio_bound)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(
    regime=st.sampled_from(["gamma1", "general", "remarks"]),
    # None leaves --shape out; remarks with convex or any is an invalid pair
    shape=st.sampled_from([None, "convex", "concave", "crossed", "any"]),
    count=st.integers(0, 3),
    seed=st.one_of(st.sampled_from([-1, 2 ** 64]), st.integers(0, 2 ** 64 - 1)),
    bound=st.one_of(st.integers(3, 12), st.integers(3, 10 ** 30)),
    ratio_bound=st.one_of(st.integers(0, 8), st.integers(0, 10 ** 30)),
)
def test_fuzz_exits_with_a_documented_code(regime, shape, count, seed, bound, ratio_bound):
    argv = ["fuzz", "--regime", regime, "--count", str(count), "--seed", str(seed),
            "--bound", str(bound), "--ratio-bound", str(ratio_bound)]
    code, err = run(argv + (["--shape", shape] if shape else []))
    # every claim that is not a finding claim is a theorem in its regime,
    # so no campaign fails (exit 1); findings never affect the exit code
    assert code in (0, 2), (argv, shape, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
