"""Random files and argv through the command line, in-process.

Whatever the contour, space, data, spec or priors, and whatever the
arguments, ``main`` must end in one of the documented exit codes -- 0, 1,
2 (argparse's usage error) or 3 -- and never let an exception escape.
Sizes are kept small so that every call is quick; the shapes of the
inputs, not their size, are what is fuzzed.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from consonance.cli import main

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, 1e308, 0.5, -0.25, 1.0, 0.0]),
    st.sampled_from(["1/2", "1/0", "0/1", "3/2", "-1/3", "a", "", "1/2/3", "0.5"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["a", "b", "lo", "pi"]), inner, max_size=3),
    max_leaves=8,
)
labels = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=4),
    st.just("ab"),
    json_values,
)
pi_values = st.one_of(
    st.lists(st.one_of(json_scalars, st.sampled_from(["1/1", 1, "2/3", 0.3])), max_size=5),
    json_values,
)
grid = st.fixed_dictionaries(
    {"lo": json_scalars, "hi": st.one_of(json_scalars, st.just(2.0)), "num_points": st.one_of(json_scalars, st.integers(0, 6))}
)
spaces = st.one_of(
    st.fixed_dictionaries({"labels": labels}),
    grid,
    st.fixed_dictionaries({"grid": st.one_of(grid, json_values)}),
    json_values,
)
contours = st.one_of(
    st.tuples(spaces, pi_values).map(lambda sp: {**sp[0], "pi": sp[1]} if isinstance(sp[0], dict) else sp[0]),
    st.fixed_dictionaries({"labels": st.just(["a", "b", "c"]), "pi": st.just(["1/4", "1/2", "1/1"]), "provenance": json_values}),
    json_values,
)
specs = st.one_of(
    st.fixed_dictionaries(
        {
            "family": st.sampled_from(["iid-categorical", "polya-urn", "iid-gaussian", "iid-poisson", "other"]),
            "weights": json_values,
            "counts": json_values,
            "labels": labels,
            "mu": json_scalars,
            "sigma": json_scalars,
            "lambda": json_scalars,
        }
    ),
    json_values,
)
csv_text = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "1", "2.5", "-1", "nan", "inf", "x,y", "", "1e999", "3"]), max_size=6).map(
        lambda rows: "\n".join(["y"] + rows) + "\n"
    ),
    st.sampled_from(["", "x\n1\n", "y\n\"unterminated\n", "\x00"]),
)
file_text = st.one_of(contours.map(json.dumps), st.sampled_from(["", "{", "not json", "[1, 2"]))

alphas = st.sampled_from(["0.1", "0.5", "0", "1", "-1", "2", "nan", "x"])
small_ints = st.sampled_from(["0", "1", "3", "-1", "x"])
events = st.sampled_from(["a", "a,b", "b,c", "z", "0", "0,1", "7", "", ","])
points = st.sampled_from(["1/2,1/2", "1/4,1/4,1/2", "1,0,0", "0.5,0.5", "1/0,1", "a", "-1,2", "nan,1"])
priors = st.one_of(
    st.sampled_from(['[{"a": 2, "b": 1}]', "[1]", '[{"a": null, "b": 1}]', '{"a": 1}', "[", "[]", '[{"a": 1e999, "b": 1}]']),
    json_values.map(json.dumps),
)


@st.composite
def invocations(draw):
    """argv for one subcommand, with ``@contour``-style placeholders for files."""
    sub = draw(st.sampled_from(["transduce", "possibility", "region", "credal", "bsa", "coverage", "table1", "junk"]))
    argv = ["--json"] if draw(st.booleans()) else []
    if sub == "transduce":
        argv += ["transduce", "--data", "@data", "--space", "@space",
                 "--psi", draw(st.sampled_from(["mean-abs", "one-minus-emp", "bogus"])),
                 "--adjust", draw(st.sampled_from(["none", "prime", "double-prime"])), "--out", "@out"]
    elif sub == "possibility":
        action = draw(st.sampled_from(["upper", "lower", "mass", "focal", "check-alt", "check-mon", "cloud"]))
        argv += ["possibility", action, "--contour", "@contour"]
        if action.startswith("check"):
            argv.insert(-2, draw(small_ints))
        if draw(st.booleans()):
            argv += ["--event", draw(events)]
    elif sub == "region":
        argv += ["region"] + (["prop1"] if draw(st.booleans()) else [])
        argv += ["--contour", "@contour", "--alpha", draw(alphas),
                 "--kind", draw(st.sampled_from(["cpr", "cut", "intersection"]))]
    elif sub == "credal":
        action = draw(st.sampled_from(["check", "extremes", "entropy", "sample", "ternary"]))
        argv += ["credal", action, "--contour", "@contour", "--p", draw(points),
                 "--count", draw(small_ints), "--seed", draw(small_ints), "--out", "@out"]
    elif sub == "bsa":
        argv += ["bsa", "--priors", draw(priors), "--alpha", draw(alphas)]
        if draw(st.booleans()):
            argv += ["--data", "@data"]
    elif sub == "coverage":
        argv += ["coverage", "--spec", "@spec", "--n", draw(small_ints), "--alpha", draw(alphas),
                 "--trials", draw(small_ints), "--seed", draw(small_ints)]
    elif sub == "table1":
        argv += ["table1"]
    else:
        argv += [draw(st.sampled_from(["junk", "--help", "-x"]))]
    return argv


@settings(max_examples=300)
@given(invocations(), file_text, file_text, specs.map(json.dumps), csv_text)
def test_every_call_ends_in_a_documented_exit_code(argv, contour, space, spec, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("contour", contour), ("space", space), ("spec", spec), ("data", data)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        paths["out"] = os.path.join(tmp, "out")
        args = [paths[a[1:]] if a.startswith("@") else a for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2, 3), (args, sink.getvalue())
