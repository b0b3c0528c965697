"""The Sklyanin pencil: the inputs whose relations are not binomials.

tests/data holds the four-dimensional Sklyanin algebra with
(alpha, beta, gamma) = (2, 3, -5/7), cut by two central elements of its
pencil: omega_1 = -x0^2 + x1^2 + x2^2 + x3^2 and
omega_2 = x1^2 - 3/2 x2^2 - 7/2 x3^2.  Both give dim End(M) = 8.  The
first quotient is not isolated: End(M) and the dual algebra have a radical
of dimension 4.  The second is: both radicals vanish.  Its run stops at
syzygy-shift, since its summands are not cyclic (exit 1), so the dual
algebra is built here directly.  The files stay out of inputs/, where every
file must exit 0.
"""

import pathlib

import pytest

from helpers import load_context

from ncquadric import parse_file, run_pipeline, stable_dual_algebra

DATA = pathlib.Path(__file__).resolve().parent / "data"
DEGREE = 4


def report(name, seed):
    return run_pipeline(parse_file(str(DATA / name)), degree=DEGREE,
                        seed=seed)


@pytest.mark.parametrize("seed", range(4))
def test_omega1_is_not_isolated(seed):
    rep = report("sklyanin_omega1.pres", seed)
    assert rep.stage("end-algebra").data["dim end algebra"] == 8
    assert rep.stage("verdict").data["radical dim"] == 4
    assert rep.verdict is False
    cross = rep.stage("dual-crosscheck").data
    assert cross["dual radical dim"] == cross["end radical dim"] == 4
    assert rep.exit_code == 0


@pytest.mark.parametrize("seed", range(4))
def test_omega2_is_isolated_and_stops_at_the_syzygy_shift(seed):
    rep = report("sklyanin_omega2.pres", seed)
    assert rep.stage("end-algebra").data["dim end algebra"] == 8
    assert rep.stage("verdict").data["radical dim"] == 0
    assert rep.verdict is True
    assert rep.stage("syzygy-shift").status == "failed"
    assert rep.exit_code == 1


def test_omega2_dual_algebra_is_semisimple():
    ctx = load_context(DATA / "sklyanin_omega2.pres", bound=DEGREE)
    real = stable_dual_algebra(ctx)
    assert real.algebra.dim == 8
    assert real.algebra.radical().dim == 0
