import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from pwfloquet.cli import _INI_FLAGS, _apply_overrides, _build_parser, _load_config, main
from pwfloquet.model import data_path, read_solution, write_solution


def run(argv):
    return main(argv)


def csv_multipliers(path):
    """The multipliers of a multipliers CSV and the is_trivial column."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line[:1] == "-" or line[:1].isdigit()]
    return np.array([complex(float(r[0]), float(r[1])) for r in rows]), [r[3] for r in rows]


class TestMeshInfo:
    def test_shipped_plant_mesh(self, capsys):
        code = run(["mesh-info", str(data_path("plant_adapted.mesh"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "L=30" in out and "ratio=55.91" in out


class TestSolve:
    def test_exact_quadratic_re(self, tmp_path, capsys):
        out = tmp_path / "qre.sol"
        code = run(["solve", "--problem", "quadratic-re", "--gamma", "4",
                    "--exact", "-L", "8", "-m", "4", "-o", str(out)])
        assert code == 0
        assert "omega=4.0" in capsys.readouterr().out
        sol = read_solution(out)
        assert sol.omega == 4.0
        assert sol.L == 8

    def test_exact_flag_without_closed_form(self, capsys):
        code = run(["solve", "--problem", "logistic", "--exact"])
        assert code == 3

    def test_unknown_problem_is_config_error(self, capsys):
        code = run(["solve", "--problem", "vanderpol"])
        assert code == 3

    def test_bad_flag_is_config_error(self):
        code = run(["solve", "--no-such-flag"])
        assert code == 3

    def test_solved_orbit_is_reported_and_written(self, tmp_path, capsys):
        out = tmp_path / "logistic.sol"
        assert run(["solve", "--problem", "logistic", "--r", "1.6", "-L", "24", "-m", "4",
                    "-o", str(out)]) == 0
        assert "iterations=" in capsys.readouterr().out
        assert read_solution(out).omega == pytest.approx(4.0204, abs=2e-3)

    def test_mesh_file(self, tmp_path):
        assert run(["solve", "--problem", "plant",
                    "--mesh-file", str(data_path("plant_adapted.mesh")), "-m", "5",
                    "--guess-file", str(data_path("plant_solution.sol")),
                    "-o", str(tmp_path / "plant.sol")]) == 0

    def test_nonconvergence_exit_code(self, tmp_path):
        # a guess far from the orbit with a one-iteration budget
        guess = tmp_path / "bad.sol"
        from pwfloquet.mesh import Mesh
        from pwfloquet.model import sample_solution, write_solution
        bad = sample_solution(
            lambda t: np.atleast_1d(1.0 + 2.5 * np.sin(2 * np.pi * t / 7.0)),
            7.0, Mesh(np.linspace(0, 1, 9)), 3,
        )
        write_solution(bad, guess)
        code = run(["solve", "--problem", "logistic", "--r", "1.6",
                    "-L", "8", "-m", "3", "--guess-file", str(guess),
                    "--max-iters", "1", "-o", str(tmp_path / "out.sol")])
        assert code == 2


class TestMultipliers:
    def test_quadratic_re_exact(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = run(["multipliers", "--problem", "quadratic-re", "--gamma", "4",
                    "--exact", "--mesh", "uniform:4", "-M", "10", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[-0].startswith("# pwfloquet multipliers")
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "re,im,modulus,is_trivial,flag"
        first = rows[1].split(",")
        assert abs(float(first[0]) - 1.0) < 1e-8  # trivial multiplier leads
        assert first[3] == "1"
        assert "verdict=stable" in text

    def test_tent_direct_linear(self, tmp_path, capsys):
        code = run(["multipliers", "--problem", "tent", "--mesh", "uniform:2",
                    "-M", "30", "-o", str(tmp_path / "t.csv")])
        assert code == 0
        msg = capsys.readouterr().out
        assert "verdict=unstable" in msg
        assert "trivial=absent" in msg

    def test_solution_mesh_requires_solution(self):
        code = run(["multipliers", "--problem", "tent", "--mesh", "solution",
                    "-M", "10"])
        assert code == 3

    def test_refined_auto_mesh(self, tmp_path):
        from pwfloquet.mesh import refine_mesh

        sol_path = data_path("plant_solution.sol")
        out = tmp_path / "m.csv"
        assert run(["multipliers", "--problem", "plant", "--solution-file", str(sol_path),
                    "--mesh", "refined:auto", "-M", "4", "-o", str(out)]) == 0
        mesh = read_solution(sol_path).mesh
        L = refine_mesh(mesh, mesh.widths.max() / 5.0).L
        assert f"# mesh_source=refined:auto L={L} M=4" in out.read_text().splitlines()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hmax", ["1e-300", "1e-320", "1e-10"])
    def test_tiny_refined_hmax_is_config_error(self, capsys, hmax):
        # more than 10^6 pieces are refused before anything is allocated
        assert run(["multipliers", "--problem", "plant", "-M", "4", "--mesh",
                    f"refined:{hmax}", "--solution-file",
                    str(data_path("plant_solution.sol"))]) == 3
        assert "pieces, over 10^6" in capsys.readouterr().err

    def test_refined_hmax_zero_is_not_auto(self, capsys):
        assert run(["multipliers", "--problem", "plant", "-M", "4", "--mesh", "refined:0",
                    "--solution-file", str(data_path("plant_solution.sol"))]) == 3
        assert "hmax must be positive" in capsys.readouterr().err

    def test_save_mesh_round_trips(self, tmp_path):
        from pwfloquet.mesh import read_mesh
        saved = tmp_path / "used.mesh"
        code = run(["multipliers", "--problem", "tent", "--mesh", "uniform:2",
                    "-M", "8", "-o", str(tmp_path / "m.csv"),
                    "--save-mesh", str(saved)])
        assert code == 0
        mesh = read_mesh(saved)
        assert np.array_equal(mesh.breakpoints, [0.0, 1.0, 2.0])


class TestPlantCoupled:
    """plant-coupled is linearized around the plant orbit, so every orbit file
    it reads or writes is a plant ``(v, w)`` orbit."""

    def test_guess_file_run_matches_the_solution_file_run(self, tmp_path):
        from pwfloquet.monodromy import LEADING

        orbit = str(data_path("plant_solution.sol"))
        guessed, stored = tmp_path / "guess.csv", tmp_path / "stored.csv"
        assert run(["multipliers", "--problem", "plant-coupled", "--guess-file", orbit,
                    "--mesh-file", str(data_path("plant_adapted.mesh")), "-m", "5",
                    "-M", "6", "-o", str(guessed)]) == 0
        assert run(["multipliers", "--problem", "plant-coupled", "--solution-file", orbit,
                    "-M", "6", "-o", str(stored)]) == 0
        (mu, trivial), (want, want_trivial) = csv_multipliers(guessed), csv_multipliers(stored)
        assert trivial.count("1") == want_trivial.count("1") == 1
        np.testing.assert_allclose(mu[:LEADING], want[:LEADING], rtol=1e-10)

    def test_solve_writes_a_plant_orbit(self, tmp_path):
        shipped = read_solution(data_path("plant_solution.sol"))
        out = tmp_path / "coupled.sol"
        assert run(["solve", "--problem", "plant-coupled",
                    "--guess-file", str(data_path("plant_solution.sol")),
                    "--mesh-file", str(data_path("plant_adapted.mesh")), "-m", "5",
                    "-o", str(out)]) == 0
        np.testing.assert_allclose(read_solution(out).values, shipped.values, atol=1e-8)


class TestConverge:
    def test_tent_order_reduction_and_determinism(self, tmp_path):
        args = ["converge", "--problem", "tent", "--vary", "M",
                "--values", "4,8,16", "--fixed", "1", "--mesh", "uniform:1",
                "--enforce", "ignore", "--reference", "self:2,60",
                "--track", "dominant"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["-o", str(out1)]) == 0
        assert run(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        order = [l for l in text.splitlines() if "fitted_order_dominant" in l][0]
        assert 1.0 <= float(order.split("=")[1]) <= 3.0
        assert "# sweep: vary M, fixed L=1\n" in text
        assert "# reference: self-computed L=2 M=60" in text

    def test_pinned_reference_value(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["converge", "--problem", "tent", "--vary", "M",
                    "--values", "8,16", "--fixed", "2", "--mesh", "uniform:2",
                    "--reference", "value:2.012469582152758",
                    "--track", "dominant", "-o", str(out)])
        assert code == 0
        assert "pinned value" in out.read_text()

    def test_one_value_sweep_has_no_fitted_order(self, capsys):
        code = run(["converge", "--problem", "tent", "--vary", "M", "--values", "8",
                    "--fixed", "2", "--mesh", "uniform:2",
                    "--reference", "value:2.012469582152758", "--track", "dominant"])
        assert code == 0
        assert "# fitted_order_dominant=nan\n" in capsys.readouterr().out

    def test_save_mesh_is_not_a_converge_flag(self, tmp_path, capsys):
        saved = tmp_path / "out.mesh"
        assert run(["converge", "--problem", "tent", "--vary", "M", "--values", "4,8",
                    "--fixed", "1", "--mesh", "uniform:1", "--enforce", "ignore",
                    "--save-mesh", str(saved)]) == 3
        assert "unrecognized arguments: --save-mesh" in capsys.readouterr().err
        assert not saved.exists()

    @pytest.mark.parametrize("spec", ["value:1,2,3", "value:", "self:2", "self:2,x", "self"])
    def test_malformed_reference_spec_is_named(self, capsys, spec):
        assert run(["converge", "--problem", "tent", "--vary", "M", "--values", "4",
                    "--fixed", "1", "--mesh", "uniform:1", "--reference", spec]) == 3
        assert f"unknown reference spec {spec!r} (expected" in capsys.readouterr().err

    def test_missing_reference_spec_error(self):
        code = run(["converge", "--problem", "tent", "--vary", "M",
                    "--values", "4", "--fixed", "1", "--mesh", "uniform:1",
                    "--reference", "nonsense"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--problem", "logistic"],
        ["--problem", "plant", "--mesh", "refined:auto"],
        ["--problem", "plant", "--mesh", f"file:{data_path('plant_adapted.mesh')}"],
    ], ids=["solution", "refined", "file"])
    def test_vary_L_on_a_single_mesh_is_config_error(self, capsys, argv):
        # these sources give one mesh, whatever L is; the sweep used to print
        # the same row for every L and a fitted order near 0
        if argv[1] == "plant":
            argv = argv + ["--solution-file", str(data_path("plant_solution.sol"))]
        code = run(["converge", "--vary", "L", "--values", "5,10,20", "--fixed", "4",
                    "--reference", "self:40,8"] + argv)
        assert code == 3
        assert "--vary L needs uniform meshes" in capsys.readouterr().err

    def test_vary_M_runs_on_the_file_mesh(self, tmp_path):
        from pwfloquet.mesh import chebyshev_family, read_mesh
        from pwfloquet.model import builtin, linearize
        from pwfloquet.monodromy import assemble, multipliers

        mesh_path, sol_path = data_path("plant_adapted.mesh"), data_path("plant_solution.sol")
        out = tmp_path / "sweep.csv"
        assert run(["converge", "--problem", "plant", "--solution-file", str(sol_path),
                    "--mesh", f"file:{mesh_path}", "--vary", "M", "--values", "2,3",
                    "--fixed", "1", "--reference", "value:0.5", "--track", "trivial",
                    "--enforce", "ignore", "-o", str(out)]) == 0
        sol = read_solution(sol_path)
        eq = linearize(builtin("plant").problem, sol)
        mesh = read_mesh(mesh_path).scaled(sol.omega)
        # with the orbit's breakpoints left out, a uniform mesh would differ
        want = [abs(multipliers(assemble(eq, mesh, chebyshev_family(M), enforce="ignore"))
                    .trivial() - 1.0) for M in (2, 3)]
        rows = [l for l in out.read_text().splitlines() if l[:1].isdigit()]
        assert [float(r.split(",")[1]) for r in rows] == want

    def test_single_mesh_header_names_the_mesh(self, tmp_path):
        # --fixed and the reference's L do not apply on the solution mesh
        out = tmp_path / "sweep.csv"
        assert run(["converge", "--problem", "plant",
                    "--solution-file", str(data_path("plant_solution.sol")),
                    "--vary", "M", "--values", "3,4", "--fixed", "1",
                    "--reference", "self:40,6", "-o", str(out)]) == 0
        text = out.read_text()
        assert "# sweep: vary M, mesh solution L=30\n" in text
        assert "# reference: self-computed mesh solution L=30 M=6 value=(" in text

    def test_single_mesh_source_needs_a_piecewise_solution(self, capsys):
        # tent is linear: refined:auto has no solution mesh to refine, as
        # for multipliers, instead of running uniform meshes
        code = run(["converge", "--problem", "tent", "--vary", "M", "--values", "4,8",
                    "--fixed", "1", "--mesh", "refined:auto", "--reference", "self:2,20"])
        assert code == 3
        assert "needs a piecewise solution" in capsys.readouterr().err


class TestConfigFile:
    def test_ini_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[problem]\nname = quadratic-re\ngamma = 4\n"
            "[monodromy]\nmesh = uniform:4\nM = 8\n"
        )
        code = run(["multipliers", "--config", str(cfg), "--exact",
                    "-o", str(tmp_path / "out.csv")])
        assert code == 0
        assert "quadratic-re" in capsys.readouterr().out

    def test_missing_config_file(self):
        assert run(["solve", "--config", "/does/not/exist.ini"]) == 3

    # one case per INI key: the value in the file and the flag it stands for
    KEYS = [
        ("problem", "name", "plant", ["--problem", "plant"]),
        ("problem", "r", "-2", ["--r", "-2"]),
        ("problem", "gamma", "3.5", ["--gamma", "3.5"]),
        ("problem", "a", "0.6", ["--a", "0.6"]),
        ("problem", "b", "0.9", ["--b", "0.9"]),
        ("problem", "eta", "-1.5", ["--eta", "-1.5"]),
        ("problem", "tau", "20", ["--tau", "20"]),
        ("bvp", "L", "12", ["-L", "12"]),
        ("bvp", "m", "3", ["-m", "3"]),
        ("bvp", "tol", "-1e-3", ["--tol=-1e-3"]),
        ("bvp", "max_iters", "7", ["--max-iters", "7"]),
        ("bvp", "family", "chebyshev-zeros", ["--family", "chebyshev-zeros"]),
        ("bvp", "phase", "fixed", ["--phase", "fixed"]),
        ("monodromy", "mesh", "uniform:3", ["--mesh", "uniform:3"]),
        ("monodromy", "M", "7", ["-M", "7"]),
        ("monodromy", "enforce", "ignore", ["--enforce", "ignore"]),
        ("output", "path", "out.csv", ["-o", "out.csv"]),
    ]

    def test_every_ini_key_has_a_case(self):
        assert ({(section, key.lower()) for section, key, _, _ in self.KEYS}
                == {(section, key) for section, keys in _INI_FLAGS.items() for key in keys})

    @pytest.mark.parametrize("section, key, value, flags", KEYS,
                             ids=[f"{s}.{k}" for s, k, _, _ in KEYS])
    def test_ini_key_sets_what_its_flag_sets(self, tmp_path, section, key, value, flags):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        parser = _build_parser()
        from_file = _apply_overrides(_load_config(str(ini)),
                                     parser.parse_args(["multipliers", "--config", str(ini)]))
        from_flags = _apply_overrides(_load_config(None),
                                      parser.parse_args(["multipliers"] + flags))
        assert vars(from_file) == vars(from_flags)
        assert vars(from_flags) != vars(_load_config(None))

    @pytest.mark.parametrize("flag, value", [("--eta", "-1e-1"), ("--tol", "-1E+2"),
                                             ("--r", "-.5e-3"), ("--gamma", "-2.")])
    def test_negative_value_after_a_space(self, flag, value):
        # argparse's own negative-number pattern misses the exponent form
        parser = _build_parser()
        spaced, joined = (_apply_overrides(_load_config(None), parser.parse_args(argv))
                          for argv in (["multipliers", flag, value],
                                       ["multipliers", f"{flag}={value}"]))
        assert vars(spaced) == vars(joined)
        assert vars(spaced) != vars(_load_config(None))

    def test_readme_example_runs(self, tmp_path, capsys):
        # the "Config file format" block, inline ``;`` comments included
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
        ini, out = tmp_path / "readme.ini", tmp_path / "readme.csv"
        ini.write_text(block)
        assert run(["multipliers", "--config", str(ini), "-o", str(out)]) == 0
        assert "# verdict=stable" in out.read_text().splitlines()


class TestExitCodes:
    """Bad input exits 3 and a failed computation exits 2, without a traceback."""

    @pytest.fixture
    def malformed_mesh(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("0.0\nnot-a-number\n1.0\n")
        return path

    @pytest.mark.parametrize("argv", [
        ["multipliers", "--problem", "tent", "--mesh", "uniform:0"],
        ["multipliers", "--problem", "tent", "--mesh", "uniform:1", "--enforce", "strict"],
        ["multipliers", "--problem", "tent", "--mesh", "uniform:3000", "-M", "5"],
    ])
    def test_bad_discretization_is_config_error(self, argv, capsys):
        assert run(argv) == 3
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, ini", [
        (["--mode", "pencil"], None),
        ([], "[monodromy]\nmode = pencil\n"),
        ([], "[monodromy]\nenforce = bogus\n"),
        ([], "[monodromy]\nMm = 3\n"),
        ([], "[mesh]\nM = 3\n"),
        ([], "[DEFAULT]\nM = 3\n"),
        ([], "M = 3\n"),
    ], ids=["flag-mode", "ini-mode", "ini-enforce", "ini-key-typo", "ini-section",
            "ini-default-section", "ini-no-section"])
    def test_unknown_option_or_value_is_config_error(self, tmp_path, capsys, flags, ini):
        # the mesh holds the breakpoint of the tent equation, so only the bad
        # option can stop the run
        argv = ["multipliers", "--problem", "tent", "--mesh", "uniform:2", "-M", "4"]
        if ini is not None:
            path = tmp_path / "run.ini"
            path.write_text(ini)
            argv += ["--config", str(path)]
        assert run(argv + flags) == 3
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["multipliers", "--problem", "tent", "--mesh", "foo"], "unknown mesh source 'foo'"),
        (["solve", "--problem", "tent"], "is linear; nothing to solve"),
        (["multipliers", "-M", "4"], "no problem selected"),
        (["solve", "--problem", "logistic", "-m", "0"], "degree must be >= 1"),
    ], ids=["mesh-source", "solve-linear", "no-problem", "solver-degree"])
    def test_bad_run_is_config_error(self, tmp_path, capsys, argv, message):
        assert run(argv + ["-o", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["format 2\n" if l == "format 1\n" else l for l in lines],
         "unsupported solution file format"),
        (lambda lines: [l for l in lines if l != "values\n"], "missing values section"),
        (lambda lines: [l.replace("omega 50.7", "omega 51.7") for l in lines],
         "omega does not match the breakpoints"),
    ], ids=["format", "values-line", "omega"])
    def test_inconsistent_solution_file_is_config_error(self, tmp_path, capsys, edit,
                                                        message):
        lines = data_path("plant_solution.sol").read_text().splitlines(keepends=True)
        path = tmp_path / "bad.sol"
        path.write_text("".join(edit(lines)))
        assert run(["multipliers", "--problem", "plant", "--mesh", "solution", "-M", "4",
                    "--solution-file", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_malformed_mesh_file_is_config_error(self, malformed_mesh):
        assert run(["multipliers", "--problem", "tent", "--mesh",
                    f"file:{malformed_mesh}"]) == 3

    def test_malformed_mesh_info_is_config_error(self, malformed_mesh):
        assert run(["mesh-info", str(malformed_mesh)]) == 3

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        argv = ["multipliers", "--problem", "tent", "--mesh", "uniform:2", "-M", "4",
                "-o", str(tmp_path)]
        assert run(argv) == 3
        assert "configuration error" in capsys.readouterr().err

    def test_closed_stdout_ends_quietly(self, monkeypatch, capsys):
        # the reader of a pipe stopped early, as in ``pwfloquet ... | head -1``
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["multipliers", "--problem", "tent", "--mesh", "uniform:2", "-M", "4"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags, ini", [
        (["--r", "nan"], None),
        (["--r", "inf"], None),
        ([], "[problem]\nr = nan\n"),
        ([], "[problem]\nr = -inf\n"),
    ], ids=["flag-nan", "flag-inf", "ini-nan", "ini-minus-inf"])
    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys, flags, ini):
        argv = ["multipliers", "--problem", "logistic", "--mesh", "solution", "-M", "4"]
        if ini is not None:
            path = tmp_path / "run.ini"
            path.write_text(ini)
            argv += ["--config", str(path)]
        assert run(argv + flags) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_failed_orbit_guess_is_convergence_failure(self, capsys):
        # below the Hopf point the orbit guess decays to the equilibrium
        assert run(["multipliers", "--problem", "logistic", "--r", "1.0"]) == 2
        assert "convergence failure" in capsys.readouterr().err

    def test_decaying_orbit_guess_is_convergence_failure(self, capsys):
        # below the Hopf point the equilibrium must not pass for a periodic orbit
        argv = ["multipliers", "--problem", "logistic", "--r", "1.2",
                "--mesh", "solution", "-M", "4"]
        assert run(argv) == 2
        assert "convergence failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, ini", [
        (["--tol", "nan"], None),
        (["--tol", "inf"], None),
        (["--tol", "0"], None),
        (["--max-iters", "-1"], None),
        ([], "[bvp]\ntol = nan\n"),
        ([], "[bvp]\nmax_iters = -2\n"),
    ], ids=["flag-nan", "flag-inf", "flag-zero", "flag-negative-iters", "ini-nan",
            "ini-negative-iters"])
    def test_bad_newton_settings_are_config_error(self, tmp_path, capsys, flags, ini):
        # a tolerance of nan or inf must not pass the orbit guess off as a solution
        out = tmp_path / "logistic.sol"
        argv = ["solve", "--problem", "logistic", "-o", str(out)]
        if ini is not None:
            path = tmp_path / "run.ini"
            path.write_text(ini)
            argv += ["--config", str(path)]
        assert run(argv + flags) == 3
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "plant", "--tol", "nan"],
        ["solve", "--problem", "logistic", "--max-iters", "-1"],
        ["multipliers", "--problem", "plant", "--tol", "0"],
    ], ids=["solve-plant-nan", "solve-logistic-iters", "multipliers-plant-zero"])
    def test_bad_newton_settings_fail_before_the_orbit_guess(self, monkeypatch, capsys,
                                                            argv):
        # the plant guess integrates 600 time units (about 1.8 s) first
        from pwfloquet import model

        calls = []
        monkeypatch.setattr(model, "integrate_orbit_guess",
                            lambda *args, **kwargs: calls.append(args))
        assert run(argv) == 3
        assert "configuration error" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("ini", ["[bvp]\nfamily = gauss-legendr\n",
                                     "[bvp]\nphase = integrall\n",
                                     "[monodromy]\nenforce = merged\n"],
                             ids=["family", "phase", "enforce"])
    def test_bad_ini_choice_fails_before_the_orbit_guess(self, monkeypatch, tmp_path,
                                                         capsys, ini):
        # checked when the file is loaded, against the choices of its flag
        from pwfloquet import model

        calls = []
        monkeypatch.setattr(model, "integrate_orbit_guess",
                            lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "run.ini"
        path.write_text(ini)
        assert run(["multipliers", "--problem", "plant", "--config", str(path)]) == 3
        assert "invalid choice" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("argv, message", [
        (["multipliers", "--mesh", "foo"], "unknown mesh source 'foo'"),
        (["multipliers", "--mesh", "uniform:abc"], "unknown mesh source 'uniform:abc'"),
        (["multipliers", "--mesh", "refined:abc"], "unknown mesh source 'refined:abc'"),
        (["multipliers", "--mesh", "refined"], "unknown mesh source 'refined'"),
        (["multipliers", "--mesh", "uniform:0"], "unknown mesh source 'uniform:0'"),
        (["multipliers", "--mesh", "refined:-1"], "unknown mesh source 'refined:-1'"),
        (["multipliers", "--mesh", "refined:nan"], "unknown mesh source 'refined:nan'"),
        (["multipliers", "--mesh", "file:"], "No such file or directory: ''"),
        (["multipliers", "--mesh", "file:/nonexistent.mesh"],
         "No such file or directory: '/nonexistent.mesh'"),
        (["multipliers", "--mesh", f"file:{data_path('plant_solution.sol')}"],
         "could not convert string to float"),
        (["multipliers", "-M", "0"], "degree must be >= 1"),
        (["multipliers", "-m", "0"], "degree must be >= 1"),
        (["solve", "-m", "0"], "degree must be >= 1"),
        (["solve", "-L", "-3"], "argument -L: not an integer >= 1: '-3'"),
        (["converge", "--vary", "M", "--values", "3,4", "--fixed", "1",
          "--reference", "foo"], "unknown reference spec 'foo'"),
        (["converge", "--vary", "M", "--values", "3,4", "--fixed", "1",
          "--reference", "self:2"], "unknown reference spec 'self:2'"),
        (["converge", "--vary", "L", "--values", "5,10", "--fixed", "4"],
         "--vary L needs uniform meshes"),
        (["converge", "--vary", "M", "--values", "0,4", "--fixed", "1"],
         "argument --values: not an integer >= 1: '0'"),
        (["converge", "--vary", "M", "--values", "3,4", "--fixed", "0", "--mesh", "uniform:1"],
         "argument --fixed: not an integer >= 1: '0'"),
        (["converge", "--vary", "M", "--values", "3,4", "--fixed", "1",
          "--reference", "self:0,4"], "unknown reference spec 'self:0,4'"),
        (["multipliers", "--b", "0", "-M", "4"], "configuration error: b = 0"),
        (["multipliers", "--problem", "plant-coupled", "--b", "0", "-M", "4"],
         "configuration error: b = 0"),
        # a negative b makes the orbit guess overflow
        (["multipliers", "--b", "-0.5", "-M", "4"], "configuration error: b = -0.5"),
        (["multipliers", "--problem", "plant-coupled", "--b", "-0.5", "-M", "4"],
         "configuration error: b = -0.5"),
        (["multipliers", "--problem", "quadratic-re", "--gamma", "0", "-M", "4", "--exact"],
         "configuration error: gamma=0.0 is too small"),
        (["multipliers", "--tau", "0"], "configuration error: tau must be positive"),
        (["multipliers", "--tau=-5"], "configuration error: tau must be positive"),
        (["multipliers", "--problem", "plant-coupled", "--tau", "0"],
         "configuration error: tau must be positive"),
    ], ids=["mesh-foo", "mesh-uniform-abc", "mesh-refined-abc", "mesh-refined", "mesh-uniform-0",
            "mesh-refined-negative", "mesh-refined-nan", "mesh-file-empty",
            "mesh-file-missing", "mesh-file-malformed",
            "M-0", "m-0", "solve-m-0", "solve-L-negative", "reference-foo", "reference-self-2",
            "vary-L-on-the-solution-mesh", "values-0", "fixed-0", "reference-self-0",
            "plant-b-0", "plant-coupled-b-0", "plant-b-negative", "plant-coupled-b-negative",
            "quadratic-re-gamma-0", "plant-tau-0",
            "plant-tau-negative", "plant-coupled-tau-0"])
    def test_bad_spec_fails_before_the_orbit_guess(self, monkeypatch, capsys, argv, message):
        # every option, spec and problem parameter is checked before the orbit
        # guess integrates
        from pwfloquet import model

        calls = []
        monkeypatch.setattr(model, "integrate_orbit_guess",
                            lambda *args, **kwargs: calls.append(args))
        assert run(argv[:1] + ["--problem", "plant"] + argv[1:]) == 3
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("track", ["foo", "trivial,foo", ","])
    def test_unknown_track_column_is_config_error(self, capsys, track):
        argv = ["converge", "--problem", "tent", "--vary", "M", "--values", "4,8",
                "--fixed", "1", "--mesh", "uniform:1", "--enforce", "ignore",
                "--reference", "self:2,20", "--track", track]
        assert run(argv) == 3
        assert "--track" in capsys.readouterr().err

    def test_solution_file_with_a_jump_is_config_error(self, tmp_path, capsys):
        # pieces that do not join are not an orbit: refused, not linearized
        sol = read_solution(data_path("plant_solution.sol"))
        values = sol.values.copy()
        values[3, -1, 0] += 0.5
        path = tmp_path / "jump.sol"
        write_solution(type(sol)(sol.breakpoints, values), path)
        assert run(["multipliers", "--problem", "plant", "-M", "6",
                    "--solution-file", str(path)]) == 3
        err = capsys.readouterr().err
        assert "configuration error: solution is discontinuous across breakpoint 4" in err

    def test_truncated_solution_file_is_config_error(self, tmp_path, capsys):
        lines = data_path("plant_solution.sol").read_text().splitlines(keepends=True)
        path = tmp_path / "short.sol"
        path.write_text("".join(lines[:12]))
        assert run(["multipliers", "--problem", "plant", "--mesh", "solution", "-M", "4",
                    "--solution-file", str(path)]) == 3
        assert "ends before breakpoint 4" in capsys.readouterr().err


class TestConfigHash:
    def test_parameter_order_does_not_change_the_hash(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[problem]\nname = logistic\ntau = 1\n")
        parser = _build_parser()
        from_file = _apply_overrides(
            _load_config(str(ini)),
            parser.parse_args(["solve", "--config", str(ini), "--r", "1.6"]))
        from_flags = _apply_overrides(
            _load_config(None),
            parser.parse_args(["solve", "--problem", "logistic", "--r", "1.6",
                               "--tau", "1"]))
        assert list(from_file.params) == ["tau", "r"]
        assert list(from_flags.params) == ["r", "tau"]
        assert vars(from_file) == vars(from_flags)
        assert from_file.hash() == from_flags.hash()

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_single_parameter_hash_is_unchanged(self):
        # the README logistic command; its hash predates the sorting
        args = _build_parser().parse_args(
            ["multipliers", "--problem", "logistic", "--r", "1.6",
             "--mesh", "solution", "-M", "4"])
        assert _apply_overrides(_load_config(None), args).hash() == "1748916c13371c15"


NUMPY_ONLY_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

import numpy as np
import pwfloquet
from pwfloquet import (Mesh, chebyshev_family, builtin, linearize, assemble,
                       multipliers, eigenfunction)
from pwfloquet.cli import main

qre = builtin("quadratic-re", gamma=4.0)
eq = linearize(qre.problem, qre.exact)
disc = assemble(eq, Mesh(np.linspace(0, 4, 5)), chebyshev_family(15))
ms = multipliers(disc)
assert abs(ms.trivial() - 1.0) < 1e-12 and ms.verdict == "stable"
eigenfunction(disc, 1)
code = main(["multipliers", "--problem", "logistic", "--r", "1.6",
             "--mesh", "solution", "-M", "4"])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
assert not loaded, loaded
sys.exit(code)
"""


class TestNumpyOnlyRuntime:
    def test_runs_without_scipy(self):
        # the library's only runtime dependency is numpy: the README example,
        # an eigenfunction and the README multipliers command run with scipy
        # made unimportable
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pwfloquet

        env = dict(os.environ, PYTHONPATH=str(Path(pwfloquet.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "re,im,modulus,is_trivial,flag" in proc.stdout
