import numpy as np
import pytest

from pwfloquet.cli import main
from pwfloquet.model import data_path, read_solution


def run(argv):
    return main(argv)


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

    def test_save_mesh_round_trips(self, tmp_path):
        from pwfloquet.mesh import read_mesh
        saved = tmp_path / "used.mesh"
        code = run(["multipliers", "--problem", "tent", "--mesh", "uniform:2",
                    "-M", "8", "-o", str(tmp_path / "m.csv"),
                    "--save-mesh", str(saved)])
        assert code == 0
        mesh = read_mesh(saved)
        assert np.array_equal(mesh.breakpoints, [0.0, 1.0, 2.0])


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
        assert "# reference: self-computed L=2 M=60" in text

    def test_pinned_reference_value(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["converge", "--problem", "tent", "--vary", "M",
                    "--values", "8,16", "--fixed", "2", "--mesh", "uniform:2",
                    "--reference", "value:2.012469582152758",
                    "--track", "dominant", "-o", str(out)])
        assert code == 0
        assert "pinned value" in out.read_text()

    def test_missing_reference_spec_error(self):
        code = run(["converge", "--problem", "tent", "--vary", "M",
                    "--values", "4", "--fixed", "1", "--mesh", "uniform:1",
                    "--reference", "nonsense"])
        assert code == 3


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

    def test_malformed_mesh_file_is_config_error(self, malformed_mesh):
        assert run(["multipliers", "--problem", "tent", "--mesh",
                    f"file:{malformed_mesh}"]) == 3

    def test_malformed_mesh_info_is_config_error(self, malformed_mesh):
        assert run(["mesh-info", str(malformed_mesh)]) == 3

    def test_failed_orbit_guess_is_convergence_failure(self, capsys):
        # below the Hopf point the orbit guess decays to the equilibrium
        assert run(["multipliers", "--problem", "logistic", "--r", "1.0"]) == 2
        assert "convergence failure" in capsys.readouterr().err
