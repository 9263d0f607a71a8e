"""Every input ends in one of the three outcomes.

Two properties draw user counts, deployment areas and budget overrides
that mix ordinary values with the edges of the float range (0,
negatives, +-inf, nan, 1e+-300, 1e308 and the smallest subnormal) and
with powers of ten from 1e-323 to 1e308.  The
command line must answer every draw with exit 0, 3 or 4, and the
library must return a result for every strategy or reject the draw as
invalid input.  A third property fuzzes the files rather than the flags:
it sets one leaf of a scenario file to a drawn JSON value and runs
solve, sweep and gen-scenario on it.  None may let an exception escape
or emit a RuntimeWarning.  All run derandomized, so tier-1 stays
deterministic, and all start from the draws that once escaped.
"""

import contextlib
import io
import json
import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pairband.cli import EXIT_INFEASIBLE, EXIT_INVALID_INPUT, EXIT_OK, main
from pairband.latency_energy import SystemConfig, UserProfile
from pairband.scenario import ScenarioTemplate, generate_scenario
from pairband.solver import STRATEGIES, solve

EDGES = (0.0, -1.0, -1e6, math.inf, -math.inf, math.nan, 1e300, 1e-300, 1e308, 5e-324)


def _value(low, high):
    """An edge of the float range, a power of ten anywhere in it, or an
    ordinary value in [low, high]."""
    return st.one_of(
        st.sampled_from(EDGES),
        st.integers(min_value=-323, max_value=308).map(lambda k: float(f"1e{k}")),
        st.floats(min_value=low, max_value=high),
    )


def _override(low, high):
    return st.one_of(st.none(), _value(low, high))


DRAW = st.fixed_dictionaries(
    {
        "n": st.sampled_from([2, 4, 6, 8]),
        "seed": st.integers(min_value=0, max_value=20),
        "area_m": _override(50.0, 1e6),
        "b_max": _override(1e3, 1e8),
        "t_max": _override(0.5, 20.0),
        "e_max": _override(1.0, 1e4),
        "d_max": _override(0.3, 2.0),
    }
)
FLAGS = {"b_max": "--bmax", "t_max": "--tmax", "e_max": "--emax", "d_max": "--dmax"}
FUZZ = settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _draw(n, seed, **budgets):
    return {"n": n, "seed": seed, "area_m": None, **dict.fromkeys(FLAGS), **budgets}


# Draws that once escaped: an objective whose finite terms overflowed
# fsum (OverflowError, under random_kkt), a multiplier search that ran
# into its step cap (RuntimeError), an infinite theta_max that psi
# divided by zero on, an equal split whose b/x overflowed on a 590 km
# area (RuntimeWarnings from f_value and phi, under random_equal), and a
# band whose multiplier's ends closed on adjacent subnormals without
# filling it (RuntimeError).
OVERFLOW = _draw(4, 19, b_max=5e-324, t_max=1e308)
STALL = _draw(2, 18, b_max=1e-300, t_max=1e308, e_max=2.5)
THETA_MAX = _draw(8, 1, b_max=1e3, t_max=1e300)
WIDE_AREA = {**_draw(2, 2, b_max=1e308), "area_m": 590000.0}
SUBNORMAL_THETA = _draw(16, 0, b_max=1e163)


@contextlib.contextmanager
def _no_runtime_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runtime == []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@example(draw=OVERFLOW, strategy="random_kkt")
@example(draw=STALL, strategy="proposed")
@example(draw=THETA_MAX, strategy="proposed")
@example(draw=WIDE_AREA, strategy="random_equal")
@example(draw=SUBNORMAL_THETA, strategy="proposed")
@given(draw=DRAW, strategy=st.sampled_from(STRATEGIES))
def test_prop_cli_ends_in_one_of_three_outcomes(workdir, draw, strategy):
    path, doc = workdir / "scn.json", workdir / "result.json"
    path.unlink(missing_ok=True)
    # "--flag=value", since argparse reads a bare "-inf" as a flag.
    gen = ["gen-scenario", f"--n={draw['n']}", f"--seed={draw['seed']}", f"--output={path}"]
    if draw["area_m"] is not None:
        gen.append(f"--area-m={draw['area_m']!r}")
    overrides = [f"{FLAGS[k]}={draw[k]!r}" for k in FLAGS if draw[k] is not None]
    with _no_runtime_warning(), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(gen)
            assert code in (EXIT_OK, EXIT_INVALID_INPUT)
            if code == EXIT_OK:
                solve_args = ["solve", str(path), f"--strategy={strategy}", f"--output={doc}"]
                code = main([*solve_args, *overrides])
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_INFEASIBLE)


@FUZZ
@example(draw=OVERFLOW)
@example(draw=STALL)
@example(draw=THETA_MAX)
@example(draw=WIDE_AREA)
@example(draw=SUBNORMAL_THETA)
@given(draw=DRAW)
def test_prop_every_strategy_answers_or_rejects_the_input(draw):
    """Invalid input is a ValueError from the template, the generator or
    the config; a valid scenario gets a result from every strategy."""
    overrides = {k: draw[k] for k in FLAGS if draw[k] is not None}
    area = {} if draw["area_m"] is None else {"area_m": draw["area_m"]}
    with _no_runtime_warning():
        try:
            scn = generate_scenario(ScenarioTemplate(n_users=draw["n"], **area), draw["seed"])
            scn = replace(scn, cfg=replace(scn.cfg, **overrides))
        except ValueError:
            return
        for strategy in STRATEGIES:
            assert solve(scn, strategy).strategy == strategy


# A leaf of a scenario file takes one of these JSON values: every JSON
# type, signed zero and one, a fraction, a small integer and the edges of
# the float range.  No size field can take one above 64 (2 is the only
# positive integer), so no draw asks for a huge allocation.
LEAF_VALUES = (
    True, False, None, "1", [], {}, 0, -1, 0.5, 2,
    1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan,
)
# Every leaf of a gen-scenario --n 4 document, as a key path.
LEAVES = (
    ("seed",),
    *(("config", f.name) for f in fields(SystemConfig)),
    *(("template", f.name) for f in fields(ScenarioTemplate)),
    *(("users", k, f.name) for k in range(4) for f in fields(UserProfile)),
    *(("distortion", "per_user", i, j) for i in range(4) for j in range(4)),
)


@pytest.fixture(scope="module")
def documents(workdir):
    """gen-scenario --n 4 documents, one per seed, drawn on first use."""
    cache = {}

    def document(seed):
        if seed not in cache:
            path = workdir / f"base-{seed}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen-scenario", "--n=4", f"--seed={seed}", f"--output={path}"]) == EXIT_OK
            cache[seed] = path.read_text()
        return json.loads(cache[seed])

    return document


# Leaves that once escaped: a compute energy past the largest float
# (reported [feasible]), a CPU rate whose square overflows
# (OverflowError), a boolean size (TypeError in the sweep), an infinite
# link (ZeroDivisionError under random_kkt, RuntimeWarnings elsewhere), a
# gate and a shadowing draw past the float range (OverflowError in the
# sweep), and a diagonal entry whose pair sum overflowed (RuntimeWarning).
@settings(FUZZ, max_examples=300)
@example(seed=0, where=("config", "bs_energy_coeff"), value=1e308, strategy="proposed")
@example(seed=0, where=("users", 0, "cpu_hz"), value=1e308, strategy="random_equal")
@example(seed=0, where=("template", "feature_dim"), value=True, strategy="proposed")
@example(seed=0, where=("users", 2, "gain_linear"), value=1e308, strategy="random_kkt")
@example(seed=0, where=("config", "noise_psd"), value=5e-324, strategy="random_kkt")
@example(seed=0, where=("template", "kappa"), value=1e308, strategy="proposed")
@example(seed=0, where=("template", "shadow_sigma_db"), value=1e308, strategy="proposed")
@example(seed=0, where=("distortion", "per_user", 0, 0), value=1e308, strategy="proposed")
@given(
    seed=st.integers(min_value=0, max_value=3),
    where=st.sampled_from(LEAVES),
    value=st.sampled_from(LEAF_VALUES),
    strategy=st.sampled_from(STRATEGIES),
)
def test_prop_a_mutated_file_ends_in_one_of_three_outcomes(workdir, documents, seed, where, value, strategy):
    """One leaf of a scenario file set to a drawn JSON value: solve,
    sweep and the file's distortion block as a table file each end in
    exit 0, 3 or 4."""
    doc = documents(seed)
    part = doc
    for key in where[:-1]:
        part = part[key]
    part[where[-1]] = value
    path, table, out = workdir / "mutated.json", workdir / "table.json", workdir / "out"
    path.write_text(json.dumps(doc))
    table.write_text(json.dumps(doc["distortion"]))
    runs = (
        ["solve", str(path), f"--strategy={strategy}", f"--output={out}.json"],
        ["sweep", str(path), "--bmax=5e6", "--seeds=2", "--jobs=1", f"--output={out}.csv"],
        ["gen-scenario", "--n=4", f"--distortion-file={table}", f"--output={out}-scn.json"],
    )
    for argv in runs:
        with _no_runtime_warning(), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_INFEASIBLE), argv[0]
