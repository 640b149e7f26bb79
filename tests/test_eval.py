"""Tests for the benchmark suite, table rendering, experiments and CLI."""

from typing import ClassVar

import pytest

from repro.eval import (
    all_experiments,
    by_name,
    format_table,
    get_experiment,
    standard_suite,
    suite,
)
from repro.eval.cli import main as cli_main


class TestBenchsuite:
    def test_suite_nonempty_and_unique_names(self):
        names = [b.name for b in standard_suite()]
        assert len(names) >= 15
        assert len(names) == len(set(names))

    def test_by_name(self):
        benchmark = by_name("xnor2")
        assert benchmark.n == 2
        with pytest.raises(KeyError):
            by_name("missing")

    def test_tag_selection(self):
        dred = suite(tags=["d-reducible"])
        assert dred and all("d-reducible" in b.tags for b in dred)

    def test_exclusion_and_size_filter(self):
        small = suite(exclude=["large"], max_vars=4)
        assert all(b.n <= 4 for b in small)
        assert all("large" not in b.tags for b in small)

    def test_known_function_semantics(self):
        xor5 = by_name("xor5").function
        for m in (0, 1, 0b10101, 0b11111):
            assert xor5.evaluate(m) == (bin(m).count("1") % 2 == 1)
        maj5 = by_name("maj5").function
        assert maj5.evaluate(0b00111) and not maj5.evaluate(0b00011)
        mux2 = by_name("mux2").function  # select bit 0, data bits 1..2
        assert mux2.evaluate(0b010) and not mux2.evaluate(0b100)
        assert mux2.evaluate(0b101)

    def test_fig4_benchmark_matches_paper_expression(self):
        fig4 = by_name("fig4").function
        assert fig4.n == 6
        assert fig4.evaluate(0b000111)  # x1 x2 x3
        assert fig4.evaluate(0b111000)  # x4 x5 x6
        assert not fig4.evaluate(0b000001)

    def test_dreducible_benchmarks_are_reducible(self):
        from repro.boolean import d_reduction

        for benchmark in suite(tags=["d-reducible"]):
            assert d_reduction(benchmark.function.on) is not None, \
                benchmark.name

    def test_pla_benchmark_loads(self):
        pla5 = by_name("pla5")
        assert pla5.n == 5
        assert 0 < pla5.function.on.count_ones() < 32


class TestTables:
    ROWS: ClassVar[list[dict]] = [
        {"name": "a", "value": 1.23456, "shape": (2, 3), "ok": True},
        {"name": "bb", "value": 2.0, "shape": (10, 1), "ok": False},
    ]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, ["name", "value", "shape", "ok"])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in text and "2x3" in text and "yes" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_format_table_title_and_missing_cols(self):
        text = format_table([{"a": 1}], ["a", "b"], title="T")
        assert text.startswith("T")


class TestExperiments:
    def test_registry_complete(self):
        ids = {e.experiment_id for e in all_experiments()}
        assert {"fig1", "fig3", "fig4", "fig5", "pcircuit", "dreducible",
                "optimal", "bist", "bisd", "bism", "fig6", "recovery",
                "variation", "yield", "arch"} <= ids
        assert len(ids) >= 16

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_fig1_experiment(self, fast_experiment):
        result = fast_experiment("fig1")
        assert len(result.rows) == 3
        assert all(row["implements_xnor2"] for row in result.rows)

    def test_render_contains_notes(self, fast_experiment):
        result = fast_experiment("fig1")
        assert "notes:" in result.render()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "bism" in out

    def test_run_fig4(self, capsys):
        assert cli_main(["run", "fig4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "3x2" in out

    def test_bench_listing_and_detail(self, capsys):
        assert cli_main(["bench"]) == 0
        assert "xnor2" in capsys.readouterr().out
        assert cli_main(["bench", "xnor2"]) == 0
        out = capsys.readouterr().out
        assert "products = 2" in out

    def test_synth_all_styles(self, capsys):
        assert cli_main(["synth", "x1 x2 + x1' x2'"]) == 0
        out = capsys.readouterr().out
        assert "diode array 2 x 5" in out
        assert "FET array 4 x 4" in out
        assert "lattice 2 x 2" in out

    def test_synth_optimal(self, capsys):
        assert cli_main(["synth", "x1 + x2", "--style", "optimal"]) == 0
        out = capsys.readouterr().out
        assert "optimal lattice 1 x 2" in out
        assert "proved: True" in out

    @pytest.mark.parametrize("style", ["all", "diode", "fet"])
    @pytest.mark.parametrize("expression", ["0", "x1 x1'", "1", "x1 + x1'"])
    def test_synth_constant_expression(self, capsys, expression, style):
        assert cli_main(["synth", expression, "--style", style]) == 0
        out = capsys.readouterr().out
        constant_one = expression in ("1", "x1 + x1'")
        if style in ("all", "diode"):
            assert ("diode array 1 x 1" if constant_one else
                    "diode array: none (constant function)") in out
        if style in ("all", "fet"):
            assert "FET array: none (constant function)" in out
        if style == "all":
            assert "lattice 1 x 1 (folded: 1 x 1)" in out

    @pytest.mark.parametrize("expression", ["", "x1 +", "(x1"])
    def test_synth_malformed_expression_is_a_usage_error(self, capsys,
                                                         expression):
        assert cli_main(["synth", expression]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("kind, flags", [
        ("faultsim", ["--n", "8", "12", "--k", "4", "--densities", "0.05",
                      "--models", "clustered", "--strategies", "exact",
                      "--trials", "30", "--seed", "3",
                      "--stuck-open-fraction", "0.5", "--batch-size", "15"]),
        ("varsweep", ["--bench", "xor3", "--sigmas", "0.2",
                      "--crossbar-rows", "8", "--crossbar-cols", "9",
                      "--trials", "20", "--seed", "4", "--nominal", "2.0",
                      "--batch-size", "10"]),
    ])
    def test_submit_takes_every_campaign_flag(self, kind, flags):
        from repro.eval.cli import (_campaign_params, _submit_payload,
                                    build_parser)
        from repro.grid.families import CAMPAIGNS

        parser = build_parser()
        direct = parser.parse_args([kind, *flags])
        submitted = parser.parse_args(["submit", "--kind", kind, *flags])
        keys = CAMPAIGNS[kind].keys
        assert keys <= set(vars(direct)) and keys <= set(vars(submitted))
        params = _campaign_params(direct, kind)
        assert set(params) == keys
        assert _submit_payload(submitted) == {"kind": kind, **params}
        # Left-out flags take the same defaults on both commands.
        assert _submit_payload(parser.parse_args(["submit", "--kind", kind])) \
            == {"kind": kind, **_campaign_params(parser.parse_args([kind]),
                                                 kind)}


class TestFlagRanges:
    """A numeric flag out of its range is a usage error (exit 2), not a
    silent serial run, a dropped row or a traceback out of time.sleep."""

    @pytest.mark.parametrize("argv", [
        ["top", "--local", "--interval", "-1"],
        ["top", "--interval", "0"],
        ["top", "--interval", "nan"],
        ["top", "--rows", "-1"],
        ["top", "--rows", "0"],
        ["batch", "--processes", "-2"],
        ["faultsim", "--processes", "-2"],
        ["varsweep", "--processes", "-2"],
        ["serve", "--processes", "-2"],
        ["serve", "--job-workers", "0"],
        ["grid", "run", "cfg.json", "--workers", "-3"],
        ["grid", "resume", "cfg.json", "--workers", "1.5"],
        ["submit", "--timeout", "0"],
        ["stats", "--timeout", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_exits_2(self, argv, capsys):
        from repro.eval.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[-2]}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field,value", [
        (["batch", "--processes", "0"], "processes", 0),
        (["serve"], "processes", 1),
        (["grid", "run", "cfg.json"], "workers", 0),
        (["top", "--interval", "0.5", "--rows", "1"], "interval", 0.5),
        (["submit"], "timeout", 300.0),
        (["stats"], "timeout", 30.0),
    ])
    def test_in_range_values_and_defaults_parse(self, argv, field, value):
        from repro.eval.cli import build_parser

        assert getattr(build_parser().parse_args(argv), field) == value

    def test_zero_processes_means_auto(self):
        from repro.engine import default_processes
        from repro.eval.cli import _processes, build_parser

        for argv, expected in ((["batch", "--processes", "0"],
                                default_processes()),
                               (["faultsim", "--processes", "3"], 3)):
            assert _processes(build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize("poll", ["-1", "0", "inf"])
    def test_grid_worker_rejects_a_non_positive_poll(self, poll, capsys):
        from repro.grid.worker import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--config", "c", "--store", "s",
                                       "--grid-id", "g", "--poll", poll])
        assert excinfo.value.code == 2
        assert "argument --poll: expected " in capsys.readouterr().err


class TestCliErrorPaths:
    """Exit-code contracts: 2 for bad requests, 0 for tiny happy paths."""

    # -- faultsim ---------------------------------------------------------
    def test_faultsim_negative_density(self, capsys):
        code = cli_main(["faultsim", "--n", "8", "--densities", "-0.1",
                         "--trials", "5", "--no-cache"])
        assert code == 2
        assert "densities" in capsys.readouterr().err

    def test_faultsim_zero_trials(self, capsys):
        code = cli_main(["faultsim", "--n", "8", "--densities", "0.05",
                         "--trials", "0", "--no-cache"])
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_faultsim_exact_beyond_validated_regime(self, capsys):
        code = cli_main(["faultsim", "--n", "16", "--densities", "0.05",
                         "--strategies", "exact", "--trials", "5",
                         "--no-cache"])
        assert code == 2
        assert "exact" in capsys.readouterr().err

    def test_faultsim_bad_stuck_open_fraction(self, capsys):
        code = cli_main(["faultsim", "--n", "8", "--densities", "0.05",
                         "--stuck-open-fraction", "1.5", "--trials", "5",
                         "--no-cache"])
        assert code == 2
        assert "stuck_open_fraction" in capsys.readouterr().err

    # -- varsweep ---------------------------------------------------------
    def test_varsweep_unknown_bench(self, capsys):
        code = cli_main(["varsweep", "--bench", "no-such-bench",
                         "--trials", "5", "--no-cache"])
        assert code == 2
        assert "no benchmark named" in capsys.readouterr().err

    def test_varsweep_negative_sigma(self, capsys):
        code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas",
                         "-0.5", "--trials", "5", "--no-cache"])
        assert code == 2
        assert "sigmas" in capsys.readouterr().err

    def test_varsweep_nan_sigma(self, capsys):
        code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas",
                         "nan", "--trials", "5", "--no-cache"])
        assert code == 2
        assert "sigmas" in capsys.readouterr().err

    def test_varsweep_crossbar_smaller_than_lattice(self, capsys):
        code = cli_main(["varsweep", "--bench", "xnor2",
                         "--crossbar-rows", "1", "--crossbar-cols", "1",
                         "--trials", "5", "--no-cache"])
        assert code == 2
        assert "crossbar" in capsys.readouterr().err

    def test_varsweep_bad_nominal(self, capsys):
        code = cli_main(["varsweep", "--bench", "xnor2", "--nominal",
                         "0.0", "--trials", "5", "--no-cache"])
        assert code == 2
        assert "nominal" in capsys.readouterr().err

    def test_varsweep_happy_path_exit_code(self, capsys):
        code = cli_main(["varsweep", "--bench", "xnor2", "--sigmas",
                         "0.3", "--trials", "10", "--batch-size", "5",
                         "--crossbar-rows", "8", "--crossbar-cols", "8",
                         "--no-cache"])
        assert code == 0
        assert "varsim campaign" in capsys.readouterr().out

    # -- batch ------------------------------------------------------------
    def test_batch_bad_defect_density(self, capsys):
        code = cli_main(["batch", "--no-cache", "--max-vars", "3",
                         "--no-optimal", "--defect-density", "-0.2"])
        assert code == 2
        assert "defect_density" in capsys.readouterr().err

    def test_batch_max_vars_zero_matches_nothing(self, capsys):
        code = cli_main(["batch", "--no-cache", "--max-vars", "0"])
        assert code == 2
        assert "no benchmarks" in capsys.readouterr().err
