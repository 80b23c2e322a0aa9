import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from dppstats import HyperbolicLevel, QuadratureConfig, variance
from dppstats.cli import cli
from oracles import asymptotic_constant_cutoff, disc_variance_quadrature_lens, weight_tail_direct


@pytest.fixture()
def runner():
    return CliRunner()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestVarianceCommand:
    def test_ground_level_value(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0", "--r", "0.5"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["r", "value", "error_estimate", "route"]
        assert len(rows) == 1
        assert rows[0][3] == "int1"
        assert float(rows[0][1]) == pytest.approx(0.266667, abs=1e-5)

    def test_both_disc_routes_agree(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "1.6", "--m", "0",
                                     "--r", "0.6", "--route", "both"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert [row[3] for row in rows] == ["int1", "int3"]
        assert float(rows[0][1]) == pytest.approx(float(rows[1][1]), rel=1e-6)

    def test_both_planar_routes_agree(self, runner):
        result = runner.invoke(cli, ["variance", "--euclidean", "--n", "0",
                                     "--r", "1", "--route", "both"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert [row[3] for row in rows] == ["shirai", "geometric"]
        assert float(rows[0][1]) == pytest.approx(float(rows[1][1]), rel=1e-6)

    @pytest.mark.parametrize("geometry, args, labels", [
        ("variance_hyperbolic", ["--nu", "1.6", "--m", "1"], ["int1", "int3"]),
        ("variance_euclidean_shirai", ["--euclidean", "--n", "2"], ["shirai", "geometric"])])
    def test_both_routes_compute_once_per_radius(self, runner, monkeypatch,
                                                 geometry, args, labels):
        # each geometry has one computation; 'both' prints it under each route name
        from dppstats import cli as cli_module

        real, calls = getattr(cli_module, geometry), []

        def counted(level, r, quad):
            calls.append(r)
            return real(level, r, quad)

        monkeypatch.setattr(cli_module, geometry, counted)
        result = runner.invoke(cli, ["variance", *args, "--r", "0.3", "--r", "0.6",
                                     "--route", "both"])
        assert result.exit_code == 0
        assert calls == [0.3, 0.6]
        _, rows = csv_rows(result.output)
        assert [(float(row[0]), row[3]) for row in rows] == [(r, label) for r in (0.3, 0.6)
                                                             for label in labels]
        assert rows[0][1:3] == rows[1][1:3] and rows[2][1:3] == rows[3][1:3]

    def test_radius_sweep_row_per_radius(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0",
                                     "--r", "0.3", "--r", "0.6"])
        _, rows = csv_rows(result.output)
        assert [float(row[0]) for row in rows] == [0.3, 0.6]

    def test_invalid_nu_exits_2(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "0.4", "--m", "0", "--r", "0.5"])
        assert result.exit_code == 2
        assert "1/2" in result.stderr

    def test_missing_level_exits_2(self, runner):
        result = runner.invoke(cli, ["variance", "--r", "0.5"])
        assert result.exit_code == 2

    def test_wrong_route_for_geometry_exits_2(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0",
                                     "--r", "0.5", "--route", "shirai"])
        assert result.exit_code == 2

    def test_unresolvable_planar_level_exits_3(self, runner):
        # past n = 188 the Gauss-Laguerre weights underflow; this used to end in
        # an OverflowError traceback from 9.0 ** n, and L_n as a product over its
        # zeros would overflow at the rule's last nodes (a RuntimeWarning)
        for n in ("189", "400"):
            result = runner.invoke(cli, ["variance", "--euclidean", "--n", n, "--r", "1"])
            assert result.exit_code == 3
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: ")

    def test_unreachable_tolerance_exits_3(self, runner):
        # the rounding bound of the limit constant misses rel_tol = 1e-30, so
        # no variance runs
        result = runner.invoke(cli, ["asymptotics", "--nu", "1", "--m", "0",
                                     "--r", "0.9", "--abs-tol", "1e-300",
                                     "--rel-tol", "1e-30"])
        assert result.exit_code == 3

    def test_json_format(self, runner):
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0",
                                     "--r", "0.5", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["command"] == "variance"
        assert payload["rows"][0]["route"] == "int1"
        assert payload["rows"][0]["value"] == pytest.approx(4.0 / 15.0, rel=1e-5)

    def test_csv_byte_stability(self, runner):
        args = ["variance", "--nu", "1.6", "--m", "1", "--r", "0.4"]
        out1 = runner.invoke(cli, args).output
        out2 = runner.invoke(cli, args).output
        assert out1 == out2


class TestAsymptoticsCommand:
    def test_ground_level_constant_column(self, runner):
        result = runner.invoke(cli, ["asymptotics", "--nu", "1", "--m", "0",
                                     "--r", "0.9", "--r", "0.99"])
        assert result.exit_code == 0
        assert "warning" not in result.stderr
        header, rows = csv_rows(result.output)
        assert header == ["r", "scaled_variance", "constant", "ratio"]
        assert rows[-1][0] == "limit"
        for row in rows[:-1]:
            assert float(row[2]) == pytest.approx(0.5, abs=1e-8)
        assert float(rows[-1][2]) == pytest.approx(0.5, abs=1e-8)

    def test_ratio_monotone_toward_one(self, runner):
        result = runner.invoke(cli, ["asymptotics", "--nu", "2", "--m", "1",
                                     "--r", "0.9", "--r", "0.99"])
        _, rows = csv_rows(result.output)
        ratios = [float(row[3]) for row in rows if row[0] != "limit"]
        assert abs(ratios[0] - 1) > abs(ratios[1] - 1)

    def test_json_includes_bound(self, runner):
        result = runner.invoke(cli, ["asymptotics", "--nu", "1", "--m", "0",
                                     "--r", "0.9", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["constant"] <= payload["bound"]
        assert payload["route"] == "int1"


class TestLargeDegreeLevels:
    """The three commands that exited 0 with wrong values while the disc tail rule
    took its weights from eigenvectors."""

    @pytest.mark.parametrize("nu, m", [(60, 30), (100, 60)])
    def test_variance_within_its_error_bar(self, runner, nu, m):
        # printed 5.2753783563816494 +- 3.9e-11 and 54116817364.65 +- 1.1e-3
        result = runner.invoke(cli, ["variance", "--nu", str(nu), "--m", str(m), "--r", "0.3"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        value, error = float(rows[0][1]), float(rows[0][2])
        ref, ref_err = disc_variance_quadrature_lens(HyperbolicLevel(nu, m), 0.3,
                                                     tail=weight_tail_direct)
        assert abs(value - ref) <= error + ref_err

    def test_asymptotic_constant_within_its_tolerance(self, runner):
        # printed C = 3.18e13 with a warning, against the bound C <= beta = 79
        result = runner.invoke(cli, ["asymptotics", "--nu", "100", "--m", "60"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        constant = float(rows[-1][2])
        ref = asymptotic_constant_cutoff(HyperbolicLevel(100.0, 60),
                                         QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300))
        assert abs(constant - ref) <= QuadratureConfig().tolerance(constant)

    def test_constant_past_its_bound_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(variance, "_tail_sum", lambda level, x, s: np.full(x.shape, 1e3))
        result = runner.invoke(cli, ["asymptotics", "--nu", "3.5", "--m", "2"])
        assert result.exit_code == 3
        assert "bound" in result.stderr and "warning" not in result.stderr


class TestDistributionCommand:
    def test_ground_level_variance(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "1", "--r", "0.5",
                                     "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["variance"] == pytest.approx(4.0 / 15.0, abs=1e-10)
        assert sum(payload["pmf"]) == pytest.approx(1.0, abs=1e-12)
        assert payload["route"] == "series"

    def test_csv_pmf_and_moment_comments(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "1", "--r", "0.5"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["n", "probability"]
        assert sum(float(row[1]) for row in rows) == pytest.approx(1.0, abs=1e-12)
        comments = [ln for ln in result.output.splitlines() if ln.startswith("#")]
        assert any(ln.startswith("# mean=") for ln in comments)
        assert any(ln.startswith("# variance=") for ln in comments)

    def test_generating_function_values(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "1.5", "--r", "0.7",
                                     "--s", "0.25", "--format", "json"])
        payload = json.loads(result.output)
        entry = payload["generating_function"][0]
        assert entry["s"] == 0.25
        import numpy as np
        pmf = np.array(payload["pmf"])
        dual = float((pmf * 1.25 ** np.arange(len(pmf))).sum())
        assert entry["value"] == pytest.approx(dual, rel=1e-9)

    def test_seeded_sampling_reproducible(self, runner):
        args = ["distribution", "--nu", "1.5", "--r", "0.7", "--samples", "5000",
                "--seed", "3", "--format", "json"]
        h1 = json.loads(runner.invoke(cli, args).output)["samples"]["histogram"]
        h2 = json.loads(runner.invoke(cli, args).output)["samples"]["histogram"]
        assert h1 == h2

    def test_sampling_builds_the_pmf_once(self, runner, monkeypatch):
        from dppstats import cli as cli_module, counting

        real, builds = counting.distribution, []

        def counted(profile):
            builds.append(profile.truncation)
            return real(profile)

        monkeypatch.setattr(counting, "distribution", counted)
        monkeypatch.setattr(cli_module, "distribution", counted)
        args = ["distribution", "--nu", "2", "--r", "0.95", "--samples", "5000",
                "--seed", "3", "--format", "json"]
        payload = json.loads(runner.invoke(cli, args).output)
        assert len(builds) == 1
        assert sum(payload["samples"]["histogram"]) == 5000

    def test_invalid_radius_exits_2(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "1", "--r", "1.0"])
        assert result.exit_code == 2

    def test_unit_radius_at_largest_nu(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "6", "--r", "0.999"])
        assert result.exit_code == 0
        assert "# truncation=" in result.output

    def test_large_nu_exits_cleanly(self, runner):
        # q_J >= 1 up to J = 2548 here, so the stop needs the ratio bound at J
        result = runner.invoke(cli, ["distribution", "--nu", "300", "--r", "0.9"])
        assert result.exit_code == 0
        assert "# truncation=3504" in result.output

    def test_overflowing_generating_product_exits_3(self, runner):
        # this ended in an OverflowError traceback from math.exp
        result = runner.invoke(cli, ["distribution", "--nu", "3", "--r", "0.999",
                                     "--s", "0.9"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "overflows" in result.output

    def test_subnormal_epsilon_exits_3(self, runner):
        result = runner.invoke(cli, ["distribution", "--nu", "1", "--r", "0.5",
                                     "--epsilon", "1e-310"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "smallest normal" in result.output


class TestContractionCommand:
    def test_single_scale(self, runner):
        result = runner.invoke(cli, ["contraction", "--m", "0", "--r", "1",
                                     "--scale", "4"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["scale", "scaled_variance", "euclidean_target", "ratio"]
        assert float(rows[0][3]) == pytest.approx(1.0, abs=0.05)

    def test_large_scale_without_overflow(self, runner):
        # R = 32 puts beta above 1000, where 4^beta would overflow a double
        result = runner.invoke(cli, ["contraction", "--m", "0", "--r", "1",
                                     "--scale", "32"])
        assert result.exit_code == 0 and result.exception is None
        assert "Traceback" not in result.output
        header, rows = csv_rows(result.output)
        assert float(rows[0][3]) == pytest.approx(1.0, abs=0.05)

    def test_invalid_scale_exits_2(self, runner):
        result = runner.invoke(cli, ["contraction", "--m", "0", "--r", "1",
                                     "--scale", "0.5"])
        assert result.exit_code == 2

    def test_json_format(self, runner):
        result = runner.invoke(cli, ["contraction", "--m", "0", "--r", "1",
                                     "--scale", "4", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["route"] == "int1"
        row = payload["rows"][0]
        assert row["ratio"] == pytest.approx(
            row["scaled_variance"] / row["euclidean_target"], rel=1e-12)


class TestOutputFiles:
    def test_output_file_written_atomically(self, runner, tmp_path):
        target = tmp_path / "out.csv"
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0",
                                     "--r", "0.5", "--output", str(target)])
        assert result.exit_code == 0
        text = target.read_text()
        assert text.startswith("r,value,error_estimate,route\n")
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_no_file_on_validation_failure(self, runner, tmp_path):
        target = tmp_path / "out.csv"
        result = runner.invoke(cli, ["variance", "--nu", "0.3", "--m", "0",
                                     "--r", "0.5", "--output", str(target)])
        assert result.exit_code == 2
        assert not target.exists()

    def test_output_dir_environment_variable(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["variance", "--nu", "1", "--m", "0", "--r", "0.5",
             "--output", "rel.csv"],
            env={"DPPSTATS_OUTPUT_DIR": str(tmp_path)})
        assert result.exit_code == 0
        assert (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("target", ["missing/out.csv", "taken"])
    def test_unwritable_output_exits_2(self, runner, tmp_path, target):
        # a missing directory, and a path that names an existing directory
        (tmp_path / "taken").mkdir()
        result = runner.invoke(cli, ["variance", "--nu", "1", "--m", "0",
                                     "--r", "0.5", "--output", str(tmp_path / target)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: cannot write ")
        assert sorted(os.listdir(tmp_path)) == ["taken"]
        assert os.listdir(tmp_path / "taken") == []


class TestOutOfDomainArguments:
    """Regression tests: each of these used to exit 0, or exit 1 with a traceback."""

    @pytest.mark.parametrize("args", [
        ["variance", "--nu", "1", "--m", "0", "--r", "0.5", "--rel-tol", "nan"],
        ["variance", "--nu", "1", "--m", "0", "--r", "0.5", "--abs-tol", "inf"],
        ["variance", "--nu", "inf", "--m", "0", "--r", "0.5"],
        ["contraction", "--m", "0", "--r", "1", "--scale", "inf"],
        ["contraction", "--m", "0", "--r", "1", "--scale", "1e300"],
        ["variance", "--euclidean", "--n", "1", "--r", "inf"],
        ["distribution", "--nu", "inf", "--r", "0.5"],
        ["distribution", "--nu", "1", "--r", "0.5", "--samples", "-3"],
        ["distribution", "--nu", "1", "--r", "0.5", "--samples", "5", "--seed", "-1"],
        ["variance", "--euclidean", "--n", "1", "--r", "1e300"],
    ])
    def test_exits_2(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""


@pytest.mark.parametrize("base", [
    ["variance", "--nu", "1", "--m", "0", "--r", "0.5"],
    ["asymptotics", "--nu", "1", "--m", "0", "--r", "0.5"],
    ["contraction", "--m", "0", "--r", "1", "--scale", "4"],
])
def test_scheme_option_is_rejected(runner, base):
    # the CLI always integrates with the certified Gauss-Legendre scheme
    result = runner.invoke(cli, base + ["--scheme", "tanh_sinh"])
    assert result.exit_code == 2
    assert "--scheme" not in runner.invoke(cli, [base[0], "--help"]).output


FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "0.5", "1"]
_QUAD_OPTIONS = ("--rel-tol", "--abs-tol")
# (valid base arguments, options fuzzed over FUZZ_VALUES, options fuzzed
# over values of their own); every numeric option of every subcommand
FUZZ_GRID = [
    (["variance", "--nu", "1", "--m", "0", "--r", "0.5"],
     ("--nu", "--r") + _QUAD_OPTIONS, {"--m": ["-1", "1", "3"]}),
    (["variance", "--euclidean", "--n", "1", "--r", "0.5"],
     ("--r",) + _QUAD_OPTIONS,
     {"--n": ["-1", "0", "40", "50", "363", "400"], "--r": ["1e300", "1e-200"]}),
    (["asymptotics", "--nu", "1", "--m", "0", "--r", "0.5"],
     ("--nu", "--r") + _QUAD_OPTIONS, {"--m": ["-1", "1", "3"]}),
    (["distribution", "--nu", "1", "--r", "0.5", "--samples", "10"],
     ("--nu", "--r", "--epsilon", "--s", "--samples", "--seed"), {}),
    (["contraction", "--m", "0", "--r", "1", "--scale", "4"],
     ("--r", "--scale") + _QUAD_OPTIONS, {"--m": ["-1", "1", "3"]}),
]


# whole argument lists and the exit codes each may give
FUZZ_CASES = [
    (["distribution", "--nu", "3", "--r", "0.999", "--s", "0.9"], (3,)),
    (["asymptotics", "--nu", "1e300", "--m", "0"], (0, 3)),
]


def _with_option(base, option, value):
    args = list(base)
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    return args


def _fuzz_cases():
    for base, options, own_values in FUZZ_GRID:
        for option in options:
            for value in FUZZ_VALUES:
                yield _with_option(base, option, value)
        for option, values in own_values.items():
            for value in values:
                yield _with_option(base, option, value)


def test_cli_fuzz_grid_exits_cleanly(runner):
    # a deterministic grid of in- and out-of-domain arguments: every run
    # exits 0, 2 or 3, raises nothing but SystemExit, and a success prints
    # no nan
    cases = [(args, (0, 2, 3)) for args in _fuzz_cases()]
    assert len(cases) > 150
    for args, codes in cases + FUZZ_CASES:
        result = runner.invoke(cli, args)
        where = " ".join(args)
        assert result.exit_code in codes, where
        assert result.exception is None or isinstance(result.exception, SystemExit), where
        if result.exit_code == 0:
            assert "nan" not in result.output.lower(), where
        assert "Traceback" not in result.output, where
