import math

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

    def test_verify_mode(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "lognormal:m=0,sigma2=1",
                           "--measure", "gr1", "--alpha", "2", "--verify")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "closed_form,oracle,abs_error"
        closed, est, diff = (float(v) for v in row.split(","))
        assert diff <= 1e-8 * (1.0 + abs(closed))
        assert closed == pytest.approx(est, abs=1e-8)


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
        assert "integer values" in err

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


class TestSelftestVerb:
    def test_filtered_families_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--families", "exp", "--draws", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,measure,draws,max_scaled_error,status"
        assert all(l.startswith("exp,") for l in lines[1:7])
        assert lines[-1].endswith("pass")

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
        code, _, _ = run(capsys, "selftest", "--families", "weibull")
        assert code == 1


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
