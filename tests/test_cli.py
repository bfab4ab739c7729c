import math
import warnings

import pytest

from entrokit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEntropyVerb:
    def test_zero_crossing_pin(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "exp:lambda=2.718281828",
                           "--measure", "shannon")
        assert code == 0
        assert abs(float(out.strip())) < 1e-8

    def test_renyi_with_alpha(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "exp:lambda=1",
                           "--measure", "renyi", "--alpha", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_validity_domain_exit_2(self, capsys):
        code, _, err = run(capsys, "entropy", "--dist", "gamma:lambda=1,mu=0.5",
                           "--measure", "renyi", "--alpha", "3")
        assert code == 2
        assert "alpha*(mu-1)" in err

    def test_gamma_shape_below_machine_epsilon(self, capsys):
        """At mu = 1e-17, alpha = 1 is a valid order: gr1 prints the Shannon line."""
        import mpmath
        lines = {}
        for measure in (["shannon"], ["gr1", "--alpha", "1"],
                        ["gr2", "--alpha", "1", "--beta", "0.5"]):
            code, out, err = run(capsys, "entropy", "--dist", "gamma:lambda=1,mu=1e-17",
                                 "--measure", *measure)
            assert code == 0, err
            lines[measure[0]] = out
        assert lines["gr1"] == lines["shannon"]
        # gr2(1, 1/2) = 2 log J(1/2), and at lambda = 1 with s = 1/2 + mu/2
        # J(1/2) = Gamma(s) / (Gamma(mu)**(1/2) (1/2)**s)
        with mpmath.workdps(40):
            mu, half = mpmath.mpf(1e-17), mpmath.mpf(0.5)
            want = 2 * (mpmath.loggamma(half + half * mu) - half * mpmath.loggamma(mu)
                        - (half + half * mu) * mpmath.log(half))
        assert float(lines["gr2"]) == pytest.approx(float(want), rel=1e-14)

    def test_unbounded_modified_exit_2(self, capsys):
        code, _, err = run(capsys, "entropy", "--dist", "chisq:nu=1",
                           "--measure", "modified")
        assert code == 2
        assert "unbounded" in err or "does not exist" in err

    def test_malformed_dist_exit_1(self, capsys):
        code, _, _ = run(capsys, "entropy", "--dist", "weibull:k=1",
                         "--measure", "shannon")
        assert code == 1

    def test_missing_alpha_exit_1(self, capsys):
        code, _, _ = run(capsys, "entropy", "--dist", "exp:lambda=1",
                         "--measure", "renyi")
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "entropy", "--dist", "exp:lambda=1",
                         "--measure", "shannon", "--frobnicate")
        assert code == 1

    def test_a_series_past_the_float_range_is_one_error_line(self, capsys, oracle_settings):
        """NBcond(0.5, 1e306) has log p_k = -inf: its NaN terms certify nothing, silently."""
        oracle_settings(max_terms=10**5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "entropy", "--dist", "nbcond:p=0.5,r=1e306",
                                 "--measure", "shannon")
        assert (code, out) == (1, "")
        assert err == ("entrokit: error: series tail not certified below 1e-14 within "
                       "max_terms=100000\n")

    def test_verify_mode(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "lognormal:m=0,sigma2=1",
                           "--measure", "gr1", "--alpha", "2", "--verify")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "closed_form,oracle,abs_error"
        closed, est, diff = (float(v) for v in row.split(","))
        assert diff <= 1e-8 * (1.0 + abs(closed))
        assert closed == pytest.approx(est, abs=1e-8)

    @pytest.mark.parametrize("orders", [["renyi", "--alpha", "2"], ["tsallis", "--alpha", "2"],
                                        ["sm", "--alpha", "2", "--beta", "3"]],
                             ids=["renyi", "tsallis", "sm"])
    def test_a_zero_prints_as_0(self, capsys, orders):
        """Each is 0 on U(0, 1), where the oracle's J = 1 gives -0.0 over 1 - alpha < 0."""
        code, out, err = run(capsys, "entropy", "--dist", "uniform:a=0,b=1", "--measure",
                             *orders, "--verify")
        assert (code, out, err) == (0, "closed_form,oracle,abs_error\n0,0,0\n", "")


class TestKlVerb:
    def test_equal_pair_zero(self, capsys):
        code, out, _ = run(capsys, "kl", "--p", "exp:lambda=3", "--q", "exp:lambda=3")
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_cross_family_exit_1(self, capsys):
        code, _, _ = run(capsys, "kl", "--p", "exp:lambda=3", "--q", "gamma:lambda=1,mu=1")
        assert code == 1

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "kl", "--p", "lognormal:m=1,sigma2=1",
                           "--q", "lognormal:m=0,sigma2=1", "--verify")
        assert code == 0
        row = out.strip().splitlines()[1]
        closed, est, diff = (float(v) for v in row.split(","))
        assert closed == pytest.approx(0.5, abs=1e-12)
        assert diff <= 1e-8


class TestModifiedVerb:
    def test_pin(self, capsys):
        code, out, _ = run(capsys, "modified", "--dist", "normal:mean=0,sigma2=1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)


class TestSweepVerb:
    def test_csv_shape_and_determinism(self, capsys):
        args = ("sweep", "--dist", "exp:lambda=1", "--measure", "shannon",
                "--grid", "0.5:4:8")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "lambda,shannon"
        assert len(lines) == 9
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rates_below_the_normal_range(self, capsys):
        code, out, err = run(capsys, "sweep", "--dist", "poisson:lambda=1", "--measure", "shannon",
                             "--grid", "1e-320,1e-300")
        assert (code, err) == (0, "")
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == pytest.approx([7.3781886e-318, 6.9177552789823e-298], rel=1e-6)

    def test_log_grid_and_param_choice(self, capsys):
        code, out, _ = run(capsys, "sweep", "--dist", "gamma:lambda=1,mu=2",
                           "--measure", "shannon", "--param", "mu",
                           "--grid", "0.5:8:5:log")
        assert code == 0
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_unknown_param_exit_1(self, capsys):
        code, _, _ = run(capsys, "sweep", "--dist", "exp:lambda=1",
                         "--measure", "shannon", "--param", "mu", "--grid", "1:2:2")
        assert code == 1

    def test_verify_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--dist", "laplace:mu=0,lambda=1",
                           "--measure", "renyi", "--alpha", "2",
                           "--grid", "0.5:2:3", "--verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,renyi,oracle,abs_error"
        for line in lines[1:]:
            _, closed, est, diff = (float(v) for v in line.split(","))
            assert abs(closed - est) == pytest.approx(diff, abs=1e-15)
            assert diff <= 1e-8 * (1.0 + abs(closed))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--dist", "exp:lambda=1",
                           "--measure", "tsallis", "--alpha", "2",
                           "--grid", "1:2:3", "--out", str(path))
        assert code == 0
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,tsallis"
        assert len(lines) == 4


class TestConvergeVerb:
    def test_binomial_experiment(self, capsys):
        code, out, _ = run(capsys, "converge", "--lambda", "2", "--n", "10,100,1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,approx,limit,abs_error"
        errs = [float(l.split(",")[3]) for l in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_nb_experiment(self, capsys):
        code, out, _ = run(capsys, "converge", "--dist", "logarithmic:p=0.5",
                           "--r-grid", "0.4,0.1,0.01")
        assert code == 0
        errs = [float(l.split(",")[3]) for l in out.strip().splitlines()[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_needs_exactly_one_experiment(self, capsys):
        code, _, _ = run(capsys, "converge", "--lambda", "2")
        assert code == 1
        code, _, _ = run(capsys, "converge", "--lambda", "2", "--n", "10",
                         "--r-grid", "0.4,0.1")
        assert code == 1
        code, out, err = run(capsys, "converge", "--lambda", "2", "--n", "10.5,100")
        assert code == 1
        assert out == ""
        assert "integer grid values" in err

    def test_log_grid_of_sizes(self, capsys):
        code, out, _ = run(capsys, "converge", "--lambda", "2", "--n", "10:10000:4:log")
        assert code == 0
        _, plain, _ = run(capsys, "converge", "--lambda", "2", "--n", "10,100,1000,10000")
        assert out == plain


class TestGaussVerb:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "gauss", "--n", "5", "--hurst-grid", "0.1:1.0:10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "hurst,det,entropy"
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0
        assert last[2] == "singular"
        dets = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 <= d <= 1.0 + 1e-12 for d in dets)

    def test_size_above_the_limit_exits_1(self, capsys):
        code, out, err = run(capsys, "gauss", "--n", "1" + "0" * 300, "--hurst-grid", "0.7")
        assert code == 1
        assert out == ""
        assert "exceeds the limit of 1000000" in err


class TestSelftestVerb:
    def test_filtered_families_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--families", "exp", "--draws", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,measure,draws,max_scaled_error,status"
        assert all(l.startswith("exp,") for l in lines[1:7])
        assert lines[-1] == "overall,,,,pass"

    def test_deterministic_under_seed(self, capsys):
        args = ("selftest", "--families", "laplace", "--draws", "5", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_tightened_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "selftest", "--families", "gamma",
                           "--draws", "10", "--tolerance", "1e-17")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_family_exit_1(self, capsys):
        code, out, err = run(capsys, "selftest", "--families", "exp,weibull")
        assert code == 1 and out == ""
        assert "unknown families ['weibull']; choose from ('gamma', 'exp'" in err

    @pytest.mark.parametrize("args, message", [
        (("--draws", "0"), "at least 1 draw"),
        (("--draws", "-1"), "at least 1 draw"),
        (("--families", ","), "at least one family"),
        (("--tolerance", "inf"), "tolerance must be finite and > 0"),
        (("--tolerance", "nan"), "tolerance must be finite and > 0"),
        (("--tolerance", "0"), "tolerance must be finite and > 0"),
        (("--seed", "-5"), "seed must be nonnegative"),
    ])
    def test_arguments_that_check_nothing_exit_1(self, capsys, args, message):
        code, out, err = run(capsys, "selftest", *args)
        assert code == 1
        assert out == ""
        assert message in err


class TestGridBound:
    @pytest.mark.parametrize("argv", [
        ("gauss", "--n", "5", "--hurst-grid", "0:1:100000000000000"),
        ("gauss", "--n", "5", "--hurst-grid", "0:1:1000001"),
        ("sweep", "--dist", "exp:lambda=1", "--measure", "shannon",
         "--grid", "0.1:1:100000000000000"),
        ("converge", "--lambda", "2", "--n", "10:1e9:1000001:log"),
    ])
    def test_more_than_a_million_points_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "exceeds the limit of 1000000 points" in err


class TestSweepRecords:
    def test_spaced_spec_prints_same_bytes(self, capsys):
        grid = ("--measure", "shannon", "--grid", "1,2")
        code, spaced, err = run(capsys, "sweep", "--dist", "gamma: lambda=1, mu=2", *grid)
        assert code == 0, err
        code, plain, _ = run(capsys, "sweep", "--dist", "gamma:lambda=1,mu=2", *grid)
        assert code == 0
        assert spaced == plain

    def test_integer_fields_need_integer_grid_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--dist", "chisq:nu=3", "--measure", "shannon",
                           "--grid", "1,2")
        assert code == 0
        assert out.splitlines()[0] == "nu,shannon"
        for dist, param in (("chisq:nu=3", "nu"), ("binomial:n=10,p=0.3", "n")):
            code, _, err = run(capsys, "sweep", "--dist", dist, "--measure", "shannon",
                               "--param", param, "--grid", "2,2.5")
            assert code == 1
            assert "integer grid values" in err


class TestVerifyContract:
    """--verify exits 1 when a row misses |closed - oracle| <= 1e-8 (1 + |closed|)."""

    @pytest.mark.parametrize("sigma2", ["1e307", "8e307", "1e308"])
    def test_normal_at_the_largest_scales(self, capsys, sigma2):
        """The oracle's nodes past |x| = 1.3e154 keep their density: no d**2 overflows."""
        code, out, err = run(capsys, "entropy", "--dist", f"normal:mean=0,sigma2={sigma2}",
                             "--measure", "shannon", "--verify")
        assert (code, err) == (0, "")
        closed, _, abs_error = map(float, out.splitlines()[1].split(","))
        exact = 0.5 * (math.log(2.0 * math.pi * math.e) + math.log(float(sigma2)))
        assert closed == pytest.approx(exact)
        assert abs_error <= 1e-13 * closed

    def test_wide_lognormal_shannon(self, capsys):
        """A desk-scale sigma2 whose oracle value once missed by 2.0e-9."""
        code, out, err = run(capsys, "entropy", "--dist",
                             "lognormal:m=1.4638539755315008,sigma2=2.0800457949637603",
                             "--measure", "shannon", "--verify")
        assert (code, err) == (0, "")
        _, _, abs_error = map(float, out.splitlines()[1].split(","))
        assert abs_error <= 1e-12

    def test_modified_verify(self, capsys):
        code, out, err = run(capsys, "modified", "--dist", "normal:mean=0,sigma2=1", "--verify")
        assert code == 0, err
        header, row = out.strip().splitlines()
        assert header == "closed_form,oracle,abs_error"
        closed, est, _ = (float(v) for v in row.split(","))
        assert closed == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)
        assert est == pytest.approx(closed, abs=1e-8)

    def test_laplace_kl_at_locations_1e5_scale_units_apart(self, capsys):
        code, out, err = run(capsys, "kl", "--p", "laplace:mu=0,lambda=1",
                             "--q", "laplace:mu=100000,lambda=1", "--verify")
        assert code == 0, err
        assert out == "closed_form,oracle,abs_error\n99999,99999,0\n"

    def test_oracle_miss_exits_1_and_keeps_stdout(self, capsys):
        argv = ("entropy", "--dist", "gamma:lambda=1,mu=1e8", "--measure", "shannon")
        _, value, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--verify")
        assert code == 1
        header, row = out.strip().splitlines()
        assert row.split(",")[0] == value.strip()
        assert len(err.strip().splitlines()) == 1
        assert "1 of 1 rows" in err

    def test_sweep_counts_the_rows_that_miss(self, capsys):
        code, out, err = run(capsys, "sweep", "--dist", "gamma:lambda=1,mu=2",
                             "--measure", "shannon", "--param", "mu",
                             "--grid", "2,1e8", "--verify")
        assert code == 1
        assert len(out.strip().splitlines()) == 3
        assert "1 of 2 rows" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_oracle_value_fails_every_check(self, capsys, monkeypatch, bad):
        """`--verify`, `selftest` and oracle_equivalence share one verdict."""
        from entrokit import oracle
        from entrokit.verification import ORACLE_MEASURES, oracle_equivalence

        monkeypatch.setattr(oracle, "entropy_estimate", lambda *args: bad)
        rows = oracle_equivalence(("exp",), 3, 0)
        assert [row.max_error for row in rows] == [math.inf] * len(ORACLE_MEASURES)
        code, out, _ = run(capsys, "selftest", "--families", "exp", "--draws", "3")
        assert code == 1
        assert "exp,shannon,3,inf,FAIL" in out and out.endswith("overall,,,,FAIL\n")
        code, _, err = run(capsys, "entropy", "--dist", "exp:lambda=1", "--measure", "renyi",
                           "--alpha", "2", "--verify")
        assert code == 1 and "1 of 1 rows" in err

    def test_underflowed_oracle_integral_exits_1(self, capsys):
        code, out, err = run(capsys, "entropy", "--dist", "gamma:lambda=1e-200,mu=2",
                             "--measure", "renyi", "--alpha", "3.5", "--verify")
        assert (code, out) == (1, "")
        assert err.startswith("entrokit: error: the integral of p**3.5 underflows to 0")

    def test_density_zero_at_every_node_exits_1(self, capsys):
        """Gamma(1, 1e16) cancels to 0 in closed form; the oracle sees none of its mass."""
        code, out, err = run(capsys, "entropy", "--dist", "gamma:lambda=1,mu=1e16",
                             "--measure", "shannon", "--verify")
        assert (code, out) == (1, "")
        assert err.startswith("entrokit: error: the density of gamma:lambda=1.0,mu=1e+16 is 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "entropy --dist gamma:lambda=1,mu=1e-17 --measure shannon",
        "kl --p gamma:lambda=1,mu=1e-17 --q gamma:lambda=1,mu=1e-16",
        "entropy --dist gamma:lambda=1,mu=0.04 --measure shannon",
    ], ids=["shannon-rounds-to-minus-one", "kl-rounds-to-minus-one", "shannon-0.04"])
    def test_gamma_endpoint_past_the_floor_exits_1(self, capsys, argv):
        """alpha (mu - 1) + 1 below 1/20 is beyond the oracle, not outside the validity domain."""
        code, out, err = run(capsys, *argv.split(), "--verify")
        assert (code, out) == (1, "")
        assert err.startswith("entrokit: error: x**") and "< 1/20" in err

    def test_gamma_shape_below_the_normal_range_is_one_error_line(self, capsys):
        """psi(1e-320) = -inf: the error line comes alone, with no numpy warning before it."""
        code, out, err = run(capsys, "entropy", "--dist", "gamma:lambda=1,mu=1e-320",
                             "--measure", "shannon")
        assert (code, out) == (1, "")
        assert err.startswith("entrokit: error: shannon entropy of gamma") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        ("entropy --dist lognormal:m=800,sigma2=1 --measure shannon",
         "the map scale of lognormal:m=800.0,sigma2=1.0 is inf, outside the positive doubles"),
        ("kl --p lognormal:m=800,sigma2=1 --q lognormal:m=0,sigma2=1",
         "the map scale of lognormal:m=800.0,sigma2=1.0 is inf, outside the positive doubles"),
        ("entropy --dist lognormal:m=-800,sigma2=1 --measure shannon",
         "the map scale of lognormal:m=-800.0,sigma2=1.0 is 0.0, outside the positive doubles"),
    ], ids=["lognormal-overflow", "kl-lognormal-overflow", "lognormal-underflow"])
    def test_tail_map_scale_past_the_float_range_exits_1(self, capsys, argv, message):
        """A plan scale beyond the doubles is one error line, not a traceback."""
        code, out, err = run(capsys, *argv.split(), "--verify")
        assert (code, out, err) == (1, "", f"entrokit: error: {message}\n")

    @pytest.mark.parametrize("dist, closed", [
        ("normal:mean=1e20,sigma2=1", 1.4189385332046727),
        ("exp:lambda=1e-310", 714.8013788281542),
        ("laplace:mu=0,lambda=1e-308", 710.889355822726),
        ("laplace:mu=-3e18,lambda=0.011135857461024499", 6.1907321558681),
        ("normal:mean=-1.9e17,sigma2=7.84e-20", -20.577292979554624),
        ("uniform:a=1e300,b=1.0000000000000002e300", 654.3309384485884),
    ], ids=["normal-far", "exp-subnormal-rate", "laplace-huge-scale", "laplace-far",
            "normal-far-narrow", "uniform-far"])
    def test_location_and_scale_leave_the_oracle(self, capsys, dist, closed):
        """The oracle integrates the standard record: a location far above the scale, and a
        scale past the doubles, verify like any other record."""
        code, out, err = run(capsys, "entropy", "--dist", dist, "--measure", "shannon",
                             "--verify")
        assert (code, err) == (0, ""), err
        value, est, _ = (float(v) for v in out.strip().splitlines()[1].split(","))
        assert value == pytest.approx(closed, rel=1e-15)
        assert abs(est - value) <= 1e-12 * (1.0 + abs(value))

    @pytest.mark.parametrize("argv, closed", [
        ("entropy --dist exp:lambda=1e-295 --measure shannon", 1.0 - math.log(1e-295)),
        ("entropy --dist laplace:mu=0,lambda=1e-296 --measure shannon",
         1.0 + math.log(2.0) - math.log(1e-296)),
        ("kl --p exp:lambda=1e-300 --q exp:lambda=2e-300", math.log(0.5) + 1.0),
    ], ids=["exp", "laplace", "kl-exp"])
    def test_tail_map_at_the_float_range_edge(self, capsys, argv, closed):
        """A density that underflowed to 0 times a Jacobian that overflowed adds 0, not NaN."""
        code, out, err = run(capsys, *argv.split(), "--verify")
        assert code == 0, err
        header, row = out.strip().splitlines()
        value, est, _ = (float(v) for v in row.split(","))
        assert value == pytest.approx(closed, rel=1e-12)
        assert est == pytest.approx(value, abs=1e-8 * (1.0 + abs(value)))

    @pytest.mark.parametrize("argv", [
        "entropy --dist poisson:lambda=1e300 --measure shannon", "converge --lambda 1e300 --n 10",
    ], ids=["entropy", "converge"])
    def test_mass_past_exact_float_indices_is_one_short_line(self, capsys, argv):
        """The index of a mode past 2**53 prints as a float, not as a 301-digit integer."""
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err) < 150
        assert "index 1e+300, beyond 2**53" in err


class TestMalformedArguments:
    @pytest.mark.parametrize("grid, message", [
        ("1:2", "expected start:stop:steps[:log]"),
        ("1:2:3:lin", "expected start:stop:steps[:log]"),
        ("a:2:3", "malformed grid"),
        ("1:2:0", "at least one step"),
        ("0:2:3:log", "positive endpoints"),
        ("1,a", "malformed grid"),
    ])
    def test_malformed_grid_exit_1(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", "--dist", "exp:lambda=1", "--measure", "shannon",
                             "--grid", grid)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", "inf:1:3"),
         "endpoint of grid 'inf:1:3' must be a finite real number, got inf"),
        (("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", "0.1:1e400:3"),
         "endpoint of grid '0.1:1e400:3' must be a finite real number, got inf"),
        (("sweep", "--dist", "exp:lambda=1", "--measure", "shannon",
          "--grid=-1.7e308:1.7e308:3"),  # the width overflows
         "value of grid '-1.7e308:1.7e308:3' must be a finite real number, got nan"),
        (("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", "1,nan"),
         "value of grid '1,nan' must be a finite real number, got nan"),
        (("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", "nan:2:3:log"),
         "endpoint of grid 'nan:2:3:log' must be a finite real number, got nan"),
        (("converge", "--lambda", "2", "--n", "10:inf:3"),
         "endpoint of grid '10:inf:3' must be a finite real number, got inf"),
        (("gauss", "--n", "3", "--hurst-grid", "nan:1:3"),
         "endpoint of grid 'nan:1:3' must be a finite real number, got nan"),
    ])
    def test_non_finite_grid_is_one_line_naming_the_grid(self, capsys, argv, message):
        """No numpy warning leaks (pytest turns it into an error) and no parameter is blamed."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"entrokit: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--n", "10,100"), "needs --lambda"),
        (("--r-grid", "0.4,0.1"), "needs --dist"),
        (("--dist", "poisson:lambda=2", "--r-grid", "0.4,0.1"), "must be logarithmic"),
    ])
    def test_converge_needs_its_inputs(self, capsys, argv, message):
        code, out, err = run(capsys, "converge", *argv)
        assert code == 1
        assert out == ""
        assert message in err


class TestRejectedInputs:
    def test_repeated_spec_key_exit_1(self, capsys):
        code, out, err = run(capsys, "entropy", "--dist", "gamma:lambda=1,lambda=2,mu=3",
                             "--measure", "shannon")
        assert (code, out) == (1, "")
        assert err == "entrokit: error: parameter 'lambda' is given more than once\n"

    @pytest.mark.parametrize("argv", [
        ("sweep", "--dist", "exp:lambda=1", "--measure", "shannon", "--grid", ","),
        ("gauss", "--n", "5", "--hurst-grid", ","),
        ("converge", "--lambda", "2", "--n", " , "),
        ("converge", "--dist", "logarithmic:p=0.5", "--r-grid", ","),
    ])
    def test_comma_grid_without_values_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "has no values" in err

    @pytest.mark.parametrize("target", ["", "missing/out.csv"])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "entropy", "--dist", "exp:lambda=1", "--measure", "shannon",
                             "--out", path)
        assert (code, out) == (1, "")
        assert err.startswith("entrokit: error: cannot write --out ")
        assert repr(path) in err and err.count("\n") == 1


def test_verify_passes_on_a_uniform_five_ulp_wide(capsys):
    code, out, err = run(capsys, "entropy", "--dist", "uniform:a=1,b=1.000000000000001",
                         "--measure", "shannon", "--verify")
    assert (code, err) == (0, "")
    closed, oracle_value, _ = map(float, out.splitlines()[1].split(","))
    assert abs(oracle_value - closed) <= 1e-12 * (1.0 + abs(closed))
