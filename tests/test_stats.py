"""Correlations, log-space fits, quadrants, group averages, rank tools."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import binary, make_region_catalog, run_python
from ecx import (InputDataError, MacroIndicators, correlation_p_value,
                 degree_profile, fit_exponential, fit_power, pearson,
                 quadrants, rank_agreement, region_averages,
                 residual_ranking)
from ecx.stats import MIN_P, QUADRANT_NAMES, rank_of
from oracles import (exp_fit_oracle, kendall_tau_b, p_two_sided,
                     power_fit_oracle)


# --- p-values ---------------------------------------------------------

def _assert_exact_p(r, n):
    got = correlation_p_value(r, n)
    want = p_two_sided(r, n)
    if want >= sys.float_info.min:
        assert got == pytest.approx(want, rel=1e-9, abs=0)
    else:
        # below the normal range a double holds fewer digits, so allow one
        # step of the subnormal spacing; p never rounds to 0
        assert got >= MIN_P
        assert got == pytest.approx(max(want, MIN_P), rel=1e-9, abs=MIN_P)


@pytest.mark.parametrize("n", [7, 47, 102])          # df = 5, 45, 100
@pytest.mark.parametrize("r", [0.05, 0.3, 0.661, -0.82, 0.95])
def test_p_value_matches_quadrature_oracle(r, n):
    _assert_exact_p(r, n)


@given(st.floats(-15.0, -3.0), st.integers(3, 5000), st.sampled_from([-1, 1]))
@settings(max_examples=150, deadline=None)
def test_p_value_exact_near_one(log_gap, n, sign):
    # 1 - r*r cancels here unless it is taken as (1 - |r|)(1 + |r|)
    _assert_exact_p(sign * (1.0 - 10.0 ** log_gap), n)


@given(st.floats(-10.0, -1.0), st.integers(3, 5000), st.sampled_from([-1, 1]))
@settings(max_examples=150, deadline=None)
def test_p_value_exact_near_zero(log_r, n, sign):
    # x = df/(df+t²) = 1 - r² rounds toward 1 here, so 1 - x is taken as r²
    _assert_exact_p(sign * 10.0 ** log_r, n)


@pytest.mark.parametrize("r", [1e-9, 0.3, -0.75, 1 - 2.0 ** -40])
def test_p_value_closed_forms(r):
    """df = 1 and df = 2 have closed forms, which check the program and
    the oracle alike."""
    for n, want in ((3, 2.0 / math.pi * math.acos(abs(r))),
                    (4, 1.0 - abs(r))):
        assert correlation_p_value(r, n) == pytest.approx(want, rel=1e-12)
        assert p_two_sided(r, n) == pytest.approx(want, rel=1e-12)


def test_p_value_extremes():
    assert correlation_p_value(0.0, 47) == 1.0
    assert correlation_p_value(1.0, 10) == MIN_P
    assert correlation_p_value(-1.0, 10) == MIN_P
    assert MIN_P > 0


def test_p_value_validation():
    with pytest.raises(InputDataError):
        correlation_p_value(0.5, 2)
    with pytest.raises(InputDataError):
        correlation_p_value(1.5, 10)


# --- pearson ----------------------------------------------------------

def test_pearson_perfect_line():
    c = pearson([1.0, 2.0, 3.0], [5.0, 7.0, 9.0])   # y = 2x + 3
    assert c.r == pytest.approx(1.0, abs=1e-15)
    assert c.p_value == MIN_P
    assert c.n == 3 and c.df == 1


def test_pearson_sign():
    c = pearson([1.0, 2.0, 3.0], [9.0, 7.0, 5.0])
    assert c.r == pytest.approx(-1.0, abs=1e-15)


def test_pearson_pairwise_complete():
    c = pearson([1.0, 2.0, np.nan, 4.0], [2.0, 4.0, 9.0, 8.0])
    assert c.n == 3
    assert c.r == pytest.approx(1.0, abs=1e-12)


def test_pearson_needs_three_points():
    with pytest.raises(InputDataError, match="at least 3"):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(InputDataError, match="at least 3"):
        pearson([1.0, 2.0, np.nan], [3.0, 4.0, 5.0])


def test_pearson_zero_variance():
    with pytest.raises(InputDataError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [3.0, 4.0, 5.0])


finite = st.floats(-50.0, 50.0)


@given(st.lists(st.tuples(finite, finite), min_size=4, max_size=12),
       st.floats(0.1, 10.0), finite)
@settings(max_examples=60, deadline=None)
def test_pearson_affine_invariance(pairs, a, b):
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    assume(x.std() > 1e-3 and y.std() > 1e-3)
    base = pearson(x, y)
    scaled = pearson(a * x + b, y)
    flipped = pearson(-a * x + b, y)
    assert scaled.r == pytest.approx(base.r, abs=1e-12)
    assert flipped.r == pytest.approx(-base.r, abs=1e-12)


# --- fits -------------------------------------------------------------

def test_exponential_exact_recovery():
    x = np.linspace(0.0, 4.0, 9)
    y = 2.0 * np.exp(0.5 * x)
    fit = fit_exponential(x, y)
    assert fit.model == "exponential"
    assert fit.a == pytest.approx(2.0, abs=1e-10)
    assert fit.b == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.rmse_log == pytest.approx(0.0, abs=1e-12)


def test_exponential_constant_y():
    fit = fit_exponential([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
    assert fit.b == pytest.approx(0.0, abs=1e-12)
    assert fit.a == pytest.approx(7.0, abs=1e-10)


def test_power_exact_recovery():
    x = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
    fit = fit_power(x, 3.0 * x**2)
    assert fit.model == "power"
    assert fit.a == pytest.approx(3.0, abs=1e-10)
    assert fit.b == pytest.approx(2.0, abs=1e-10)


def test_noisy_fits_match_normal_equations_oracle():
    rng = np.random.default_rng(42)
    x = np.linspace(0.5, 6.0, 25)
    y = 1.7 * np.exp(0.33 * x) * np.exp(rng.normal(0, 0.2, x.size))
    fit = fit_exponential(x, y)
    a, b = exp_fit_oracle(x, y)
    assert fit.a == pytest.approx(a, rel=1e-10)
    assert fit.b == pytest.approx(b, rel=1e-10)
    assert float(fit.residuals.sum()) == pytest.approx(0.0, abs=1e-10)

    y2 = 4.0 * x**-1.2 * np.exp(rng.normal(0, 0.15, x.size))
    fit2 = fit_power(x, y2)
    a2, b2 = power_fit_oracle(x, y2)
    assert fit2.a == pytest.approx(a2, rel=1e-10)
    assert fit2.b == pytest.approx(b2, rel=1e-10)
    assert float(fit2.residuals.sum()) == pytest.approx(0.0, abs=1e-10)


def test_fit_error_messages_name_offenders():
    with pytest.raises(InputDataError, match="R02"):
        fit_exponential([1.0, 2.0, 3.0], [1.0, -4.0, 2.0],
                        labels=["R01", "R02", "R03"])
    with pytest.raises(InputDataError, match="zero variance"):
        fit_power([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputDataError, match="R01"):
        fit_power([0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
                  labels=["R01", "R02", "R03"])


def test_expected_curve_roundtrip():
    x = np.array([1.0, 2.0, 4.0])
    fit = fit_power(x, 5.0 * x**1.5)
    assert np.allclose(fit.expected(x), 5.0 * x**1.5, rtol=1e-10)


# --- residual ranking -------------------------------------------------

def test_residual_ranking_flags_point_below_line():
    x = np.linspace(1.0, 5.0, 8)
    y = 2.0 * np.exp(0.4 * x)
    y[3] *= 0.5          # 50% below the perfect line
    y[6] *= 2.0
    labels = [f"R{i:02d}" for i in range(8)]
    fit = fit_exponential(x, y, labels=labels)
    ranking = residual_ranking(fit, labels)
    assert ranking[0][0] == "R03"
    assert ranking[0][1] < 0
    assert ranking[-1][0] == "R06"

    scaled = fit_exponential(x, 5.0 * y, labels=labels)
    assert [c for c, _ in residual_ranking(scaled, labels)] == \
        [c for c, _ in ranking]


def test_residual_ranking_all_on_line():
    x = np.array([1.0, 2.0, 3.0])
    fit = fit_exponential(x, np.exp(x))
    ranking = residual_ranking(fit, ["a", "b", "c"])
    assert all(abs(res) < 1e-12 for _, res in ranking)
    assert [c for c, _ in ranking] == ["a", "b", "c"]   # ties by label


# --- quadrants --------------------------------------------------------

def test_quadrants_nested_example():
    prof = degree_profile(binary([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    q = quadrants(prof, ["p1", "p2", "p3"])
    assert q.mean_k_p0 == 2.0 and q.mean_k_p1 == 2.5
    got = dict(zip(q.codes, q.quadrants))
    assert QUADRANT_NAMES[got["p1"]] == "diversified-specialized"
    assert QUADRANT_NAMES[got["p3"]] == "concentrated-ubiquitous"


def test_quadrants_boundary_goes_positive():
    # all regions identical: every point sits exactly on both means
    prof = degree_profile(binary([[1, 1], [1, 1], [1, 1]]))
    q = quadrants(prof, ["a", "b", "c"])
    assert q.quadrants == ("Q1", "Q1", "Q1")


def test_quadrants_permutation_invariant():
    pattern = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    q1 = quadrants(degree_profile(binary(pattern)), ["p1", "p2", "p3"])
    q2 = quadrants(degree_profile(binary(pattern[::-1])), ["p3", "p2", "p1"])
    assert dict(zip(q1.codes, q1.quadrants)) == dict(zip(q2.codes, q2.quadrants))


# --- region averages --------------------------------------------------

def _macro(catalog, gpp_pc, income):
    pop = np.full(len(catalog), 100.0)
    gpp_pc = np.asarray(gpp_pc, dtype=float)
    return MacroIndicators(catalog, pop, gpp_pc * pop,
                           np.asarray(income, dtype=float), gpp_pc)


def test_region_averages_exact_means():
    catalog = make_region_catalog(4)            # Kanto, Kansai alternating
    eci = np.array([1.0, 2.0, 3.0, 4.0])
    macro = _macro(catalog, [10.0, 20.0, 30.0, 40.0],
                   [1.0, 1.0, 2.0, 2.0])
    summary = region_averages(eci, catalog.codes, macro, catalog)
    by_name = {g.name: g for g in summary.groups}
    assert set(by_name) == {"Kanto", "Kansai"}
    assert by_name["Kanto"].count == 2           # R01, R03
    assert by_name["Kanto"].mean_eci == pytest.approx(2.0)
    assert by_name["Kanto"].mean_gpp_per_capita == pytest.approx(20.0)
    assert by_name["Kansai"].mean_eci == pytest.approx(3.0)
    # two groups are too few for a correlation
    assert summary.gpp_correlation is None


def test_region_averages_highlight_is_inclusive():
    catalog = make_region_catalog(4)
    eci = np.array([1.0, 2.0, 3.0, 4.0])
    macro = _macro(catalog, [10.0, 20.0, 30.0, 40.0], [1.0, 1.0, 2.0, 2.0])
    summary = region_averages(eci, catalog.codes, macro, catalog,
                              highlight="R01")
    names = [g.name for g in summary.groups]
    assert names == ["Kansai", "Kanto", "Region 01"]
    by_name = {g.name: g for g in summary.groups}
    # the home group still averages over ALL members, highlight included
    assert by_name["Kanto"].mean_eci == pytest.approx(2.0)
    assert by_name["Region 01"].count == 1
    assert by_name["Region 01"].mean_eci == pytest.approx(1.0)
    # ... and the exclusive variant is reported alongside
    assert summary.home_group_excluding.name == "Kanto"
    assert summary.home_group_excluding.count == 1
    assert summary.home_group_excluding.mean_eci == pytest.approx(3.0)


def test_region_averages_single_region_group():
    catalog = make_region_catalog(1, groups=("Kanto",))
    macro = _macro(catalog, [10.0], [5.0])
    summary = region_averages(np.array([0.7]), catalog.codes, macro, catalog)
    assert summary.groups[0].mean_eci == pytest.approx(0.7)
    assert summary.groups[0].count == 1


def test_region_averages_unknown_highlight():
    catalog = make_region_catalog(3)
    macro = _macro(catalog, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputDataError, match="highlight"):
        region_averages(np.zeros(3), catalog.codes, macro, catalog,
                        highlight="ZZ")


# --- rank agreement ---------------------------------------------------

def test_rank_agreement_identical():
    a = {"x": 1, "y": 2, "z": 3}
    tau, table = rank_agreement(a, dict(a))
    assert tau == pytest.approx(1.0)
    assert table == [("x", 1, 1), ("y", 2, 2), ("z", 3, 3)]


def test_rank_agreement_reversed():
    a = {"x": 1, "y": 2, "z": 3}
    b = {"x": 3, "y": 2, "z": 1}
    tau, _ = rank_agreement(a, b)
    assert tau == pytest.approx(-1.0)


def test_rank_agreement_label_mismatch():
    with pytest.raises(InputDataError, match="label mismatch"):
        rank_agreement({"x": 1, "y": 2}, {"x": 1, "q": 2})


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rank_agreement_matches_pairwise_tau_b(pairs):
    a = {f"L{i}": x for i, (x, _) in enumerate(pairs)}
    b = {f"L{i}": y for i, (_, y) in enumerate(pairs)}
    tau, table = rank_agreement(a, b)
    want = kendall_tau_b([r[1] for r in table], [r[2] for r in table])
    if math.isnan(want):                  # one side has no untied pair
        assert math.isnan(tau)
    else:
        assert tau == pytest.approx(want, rel=0, abs=1e-15)


def test_commands_run_with_scipy_blocked(tmp_path):
    """ecx needs numpy and the standard library alone: with every scipy
    import refused, the staged chain, ``run_pipeline``, rank agreement
    and ``--version`` all succeed, and ``import ecx.cli`` still leaves
    ``importlib.metadata`` unloaded."""
    script = """
        import sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is blocked")

        sys.meta_path.insert(0, RefuseScipy())
        import ecx.cli

        assert "importlib.metadata" not in sys.modules, "loaded by import ecx.cli"
        fixture = ecx.bundled_fixture_dir()
        inputs = [fixture / f"{name}.csv"
                  for name in ("firms", "regions", "sectors", "macro")]
        staged = sys.argv[1] + "/staged"
        for stage in (["ingest", *(f"--{p.stem}={p}" for p in inputs)],
                      ["matrix"], ["eci"], ["fitness"], ["mst"], ["correlate"],
                      ["report", "--summary", "--highlight", "R01"]):
            assert ecx.cli.main([*stage, "--out", staged]) == 0, stage
        ecx.run_pipeline(ecx.RunConfig(sys.argv[1], *inputs))
        tau, _ = ecx.rank_agreement({"a": 1, "b": 2, "c": 3},
                                    {"a": 1, "b": 3, "c": 2})
        assert abs(tau - 1 / 3) < 1e-15, tau
        try:
            ecx.cli.main(["--version"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
    """
    proc = run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("ecx ")
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "staged" / "regions.csv").is_file()


def test_rank_of_ties_break_by_code():
    ranks = rank_of(np.array([5.0, 9.0, 5.0]), ["c", "a", "b"])
    assert ranks == {"a": 1, "b": 2, "c": 3}
