import ast
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ricreg import DataBlock, cli, read_checkpoint, solve_direct, write_blocks
from ricreg.cli import main
from ricreg.model import Hyperparams, read_blocks, write_checkpoint
from ricreg.problems import relative_l1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def _src_env():
    """The environment of a subprocess that imports this ``ricreg``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def sin_data(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    code, payload = run(
        capsys, "gen", "sin10x", "--count", "200", "--noise", "1.0",
        "--seed", "0", "--out", str(path),
    )
    assert code == 0
    return path, payload


class TestGen:
    def test_writes_blocks_manifest_and_truth(self, sin_data, tmp_path):
        path, payload = sin_data
        blocks = read_blocks(path)
        assert len(blocks) == 200
        manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["basis"] == "poly-trig-10"
        truth_lines = (tmp_path / "data.jsonl.truth.csv").read_text().splitlines()
        assert truth_lines[0] == "x,y"
        assert len(truth_lines) == 1 + 1001

    GEN_ARGS = {
        "sin10x": ["--count", "50", "--seed", "7"],
        "reaction-diffusion": ["--count", "6", "--seed", "3", "--lambda-b", "2.5"],
        "ko": ["--grid-count", "12", "--solver-h", "1e-3", "--fd-h", "1e-2"],
    }

    def test_same_seed_gives_identical_bytes(self, tmp_path, capsys, monkeypatch):
        # Relative --out paths, so that stdout and the manifests compare as bytes.
        for problem, flags in self.GEN_ARGS.items():
            outputs = []
            for sub in ("a", "b"):
                workdir = tmp_path / problem / sub
                workdir.mkdir(parents=True)
                monkeypatch.chdir(workdir)
                assert main(["gen", problem, *flags, "--out", "d"]) == 0
                files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
                outputs.append((capsys.readouterr().out, files))
            assert outputs[0] == outputs[1]
            assert len(outputs[0][1]) == (5 if problem == "ko" else 3)

    def test_manifest_and_stdout_fields(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        expected = {
            "sin10x": (
                {"problem": "sin10x", "seed": 7, "count": 50, "noise": 1.0,
                 "basis": "poly-trig-10", "blocks": "d"},
                "x,y", "d", 50, {"seed": 7},
            ),
            "reaction-diffusion": (
                {"problem": "reaction-diffusion", "seed": 3, "count": 6, "noise": 0.1,
                 "lambda_b": 2.5, "basis": "fourier-21", "blocks": "d"},
                "x,u,f", "d", 6 + 2, {"seed": 3},
            ),
            "ko": (
                {"problem": "ko", "grid_count": 12, "solver_h": 1e-3, "fd_h": 1e-2,
                 "basis": "quad-monomial-3d",
                 "blocks": ["d.eq1.jsonl", "d.eq2.jsonl", "d.eq3.jsonl"]},
                "x,x1,x2,x3", ["d.eq1.jsonl", "d.eq2.jsonl", "d.eq3.jsonl"], 12, {},
            ),
        }
        for problem, (manifest, header, blocks, count, seed) in expected.items():
            assert main(["gen", problem, *self.GEN_ARGS[problem], "--out", "d"]) == 0
            payload = json.loads(capsys.readouterr().out)
            text = (tmp_path / "d.manifest.json").read_text()
            assert text == json.dumps({**manifest, "truth_csv": "d.truth.csv"}, indent=2) + "\n"
            assert list(payload.items()) == list({
                "blocks": blocks, "manifest": "d.manifest.json", "truth_csv": "d.truth.csv",
                "count": count, "basis": manifest["basis"], **seed,
            }.items())
            assert (tmp_path / "d.truth.csv").read_text().splitlines()[0] == header

    @pytest.mark.parametrize("problem", list(GEN_ARGS))
    def test_truth_csv_matches_per_row_form(self, tmp_path, capsys, problem):
        # The column stack writes the bytes of one csv row per grid point with
        # every value as repr(float(...)).
        argv = ["gen", problem, *self.GEN_ARGS[problem], "--out", str(tmp_path / "d")]
        assert main(argv) == 0
        generate, _, _, truth_of = cli._GEN_PROBLEMS[problem]
        prob = generate(cli.build_parser().parse_args(argv))
        columns = list(truth_of(prob, prob.eval_grid).items())
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"] + [name for name, _ in columns])
            for i, x in enumerate(prob.eval_grid):
                writer.writerow([repr(float(x))] + [repr(float(col[i])) for _, col in columns])
        assert (tmp_path / "d.truth.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_ko_writes_three_streams(self, tmp_path, capsys):
        out = tmp_path / "ko"
        code, payload = run(
            capsys, "gen", "ko", "--grid-count", "20", "--solver-h", "1e-3",
            "--fd-h", "1e-2", "--out", str(out),
        )
        assert code == 0
        assert len(payload["blocks"]) == 3
        for p in payload["blocks"]:
            assert len(read_blocks(p)) == 20


class TestFit:
    def test_riccati_vs_lsq(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        thetas = {}
        for method in ("riccati", "lsq"):
            out = tmp_path / f"{method}.json"
            code, payload = run(
                capsys, "fit", str(path), "--gamma", "100", "--method", method,
                "--step-size", "1e-3", "--out", str(out),
            )
            assert code == 0
            assert payload["checkpoint"] == str(out)
            thetas[method] = np.array(payload["theta_star"])
        assert relative_l1(thetas["riccati"], thetas["lsq"]) <= 1e-6

    def test_rls_vs_lsq(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        thetas = {}
        for method in ("rls", "lsq"):
            out = tmp_path / f"{method}.json"
            code, payload = run(
                capsys, "fit", str(path), "--gamma", "100", "--method", method,
                "--out", str(out),
            )
            assert code == 0
            thetas[method] = np.array(payload["theta_star"])
        assert relative_l1(thetas["rls"], thetas["lsq"]) <= 1e-10

    @pytest.mark.parametrize("method", ["riccati", "rls", "lsq"])
    def test_stream_is_stacked_once(self, sin_data, tmp_path, capsys, monkeypatch, method):
        from ricreg import model, oracle, rls

        stacked = []
        original = model.weighted_rows

        def counting(blocks, n):
            blocks = list(blocks)
            stacked.append(len(blocks))
            return original(blocks, n)

        for module in (model, oracle, rls, cli):
            monkeypatch.setattr(module, "weighted_rows", counting)
        code, _ = run(capsys, "fit", str(sin_data[0]), "--gamma", "100", "--method",
                      method, "--out", str(tmp_path / "ck.json"))
        assert code == 0
        # One stack of the 200 blocks; every later use sees it as one block.
        assert stacked[0] == 200
        assert all(count == 1 for count in stacked[1:])

    @pytest.mark.parametrize("problem", ["sin10x", "reaction-diffusion"])
    def test_lsq_matches_rls_to_rounding(self, tmp_path, capsys, problem):
        data = tmp_path / "data.jsonl"
        gen_args = {"sin10x": ["--count", "200", "--seed", "0"],
                    "reaction-diffusion": ["--count", "120", "--seed", "5"]}[problem]
        assert run(capsys, "gen", problem, *gen_args, "--out", str(data))[0] == 0
        gamma = "100" if problem == "sin10x" else "1"
        states, thetas = {}, {}
        for method in ("rls", "lsq"):
            out = tmp_path / f"{method}.json"
            code, payload = run(capsys, "fit", str(data), "--gamma", gamma,
                                "--method", method, "--out", str(out))
            assert code == 0
            states[method] = read_checkpoint(out).state
            thetas[method] = np.array(payload["theta_star"])
        lsq, rls = states["lsq"], states["rls"]
        assert np.array_equal(lsq.p, lsq.p.T)
        for got, ref in ((lsq.p, rls.p), (lsq.q, rls.q), (lsq.r, rls.r),
                         (thetas["lsq"], thetas["rls"])):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_lsq_on_numerically_singular_system_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0, 1.0]], y=[1.0])], data)
        out = tmp_path / "ck.json"
        code = main(["fit", str(data), "--gamma", "1e-300", "--method", "lsq",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: normal-equations")
        assert not out.exists()

    def test_lsq_with_overflowing_evaluation_point_is_numerical_failure(
            self, sin_data, tmp_path, capsys):
        # The message of riccati and rls: gamma * theta0 is refused before q is built.
        out = tmp_path / "ck.json"
        code = main(["fit", str(sin_data[0]), "--gamma", ",".join(["1e300"] + ["1"] * 9),
                     "--theta0", "1e10", "--method", "lsq", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: non-finite minimizer: gamma * theta0 overflows\n")
        assert not out.exists()

    def test_forward_blow_up_names_a_step_that_passes(self, tmp_path, capsys):
        # The first block of this stream is too stiff for the default step.
        data, out = tmp_path / "d.jsonl", tmp_path / "ck.json"
        assert run(capsys, "gen", "sin10x", "--count", "200", "--seed", "1",
                   "--out", str(data))[0] == 0
        argv = ["fit", str(data), "--gamma", "100", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        prefix = "numerical failure: forward run is too stiff for RK4 at step size 0.001 "
        assert err.startswith(prefix) and not out.exists()
        step = float(err.rsplit("use a smaller step size, e.g. ", 1)[1])
        assert 0.0 < step < 1e-3
        assert run(capsys, *argv, "--step-size", repr(step))[0] == 0
        assert out.exists()

    def test_empty_data_returns_prior(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        out = tmp_path / "ck.json"
        code, payload = run(
            capsys, "fit", str(data), "--gamma", "1,2,4", "--theta0", "0.5,0,-1",
            "--out", str(out),
        )
        assert code == 0
        assert payload["theta_star"] == [0.5, 0.0, -1.0]
        assert out.exists()

    def test_empty_data_with_scalar_gamma_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        code = main(
            ["fit", str(data), "--gamma", "1", "--out", str(tmp_path / "ck.json")]
        )
        assert code == 1
        assert "pass --gamma (or --theta0) as a comma-separated vector" in capsys.readouterr().err

    @pytest.mark.parametrize("record", ["[1, 2]", '{"phi": [[1.0]], "y": [1.0], "lambda": -1}'])
    def test_bad_record_is_usage_error_naming_its_line(self, tmp_path, capsys, record):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"phi": [[1.0]], "y": [1.0]}\n' + record + "\n")
        code = main(["fit", str(data), "--gamma", "1", "--out", str(tmp_path / "ck.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {data}:2: bad block record: ")

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(
            ["fit", str(tmp_path / "nope.jsonl"), "--gamma", "1",
             "--out", str(tmp_path / "ck.json")]
        )
        assert code == 1


class TestAddRemove:
    def test_add_then_remove_restores_minimizer(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        base = tmp_path / "base.json"
        code, payload0 = run(
            capsys, "fit", str(path), "--gamma", "100", "--step-size", "1e-3",
            "--out", str(base),
        )
        assert code == 0
        extra = tmp_path / "extra.jsonl"
        rng = np.random.default_rng(5)
        write_blocks(
            [DataBlock(phi=rng.normal(size=(1, 10)), y=rng.normal(size=1))
             for _ in range(4)],
            extra,
        )
        added = tmp_path / "added.json"
        code, _ = run(
            capsys, "add", "--checkpoint", str(base), str(extra),
            "--step-size", "1e-3", "--out", str(added),
        )
        assert code == 0
        removed = tmp_path / "removed.json"
        code, payload1 = run(
            capsys, "remove", "--checkpoint", str(added), str(extra),
            "--step-size", "1e-3", "--out", str(removed),
        )
        assert code == 0
        before = np.array(payload0["theta_star"])
        after = np.array(payload1["theta_star"])
        assert np.abs(after - before).sum() <= 1e-6

    def test_unstable_removal_is_numerical_failure(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        ck = tmp_path / "ck.json"
        code, _ = run(
            capsys, "fit", str(empty), "--gamma", "1,1", "--out", str(ck)
        )
        assert code == 0
        bad = tmp_path / "bad.jsonl"
        write_blocks([DataBlock(phi=[[50.0, 10.0]], y=[1.0], lam=5.0)], bad)
        code = main(
            ["remove", "--checkpoint", str(ck), str(bad), "--step-size", "0.05",
             "--out", str(tmp_path / "out.json")]
        )
        assert code == 2


class TestTune:
    def test_gamma_identity_keeps_checkpoint_numbers(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        base = tmp_path / "base.json"
        run(capsys, "fit", str(path), "--gamma", "100", "--step-size", "1e-3",
            "--out", str(base))
        out = tmp_path / "same.json"
        code, _ = run(
            capsys, "tune", "--checkpoint", str(base), "--gamma", "100",
            "--out", str(out),
        )
        assert code == 0
        a, b = json.loads(base.read_text()), json.loads(out.read_text())
        for key in ("p", "q", "r", "gamma", "theta0", "elapsed"):
            assert a[key] == b[key]

    def test_gamma_retune_matches_oracle(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        base = tmp_path / "base.json"
        run(capsys, "fit", str(path), "--gamma", "100", "--step-size", "1e-3",
            "--out", str(base))
        out = tmp_path / "tuned.json"
        code, payload = run(
            capsys, "tune", "--checkpoint", str(base), "--gamma", "10",
            "--step-size", "1e-2", "--out", str(out),
            "--trace", str(tmp_path / "trace.csv"),
        )
        assert code == 0
        blocks = read_blocks(path)
        hyper = Hyperparams(gamma=np.full(10, 10.0), theta0=np.zeros(10))
        oracle = solve_direct(hyper, blocks)
        assert relative_l1(np.array(payload["theta_star"]), oracle.theta_star) <= 1e-6
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("effective_param,data_fit,reg_norm,theta_0")

    def test_lambda_retune_matches_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        blocks = [
            DataBlock(phi=rng.normal(size=(1, 4)), y=rng.normal(size=1))
            for _ in range(6)
        ]
        data = tmp_path / "d.jsonl"
        write_blocks(blocks, data)
        base = tmp_path / "base.json"
        run(capsys, "fit", str(data), "--gamma", "1", "--step-size", "1e-3",
            "--out", str(base))
        target = tmp_path / "target.jsonl"
        write_blocks(blocks[:2], target)
        out = tmp_path / "tuned.json"
        code, payload = run(
            capsys, "tune", "--checkpoint", str(base), "--lambda-block",
            str(target), "--lambda", "1", "3", "--step-size", "1e-3",
            "--out", str(out),
        )
        assert code == 0
        hyper = Hyperparams(gamma=np.ones(4), theta0=np.zeros(4))
        reweighted = [
            DataBlock(phi=b.phi, y=b.y, lam=3.0) for b in blocks[:2]
        ] + blocks[2:]
        oracle = solve_direct(hyper, reweighted)
        assert relative_l1(np.array(payload["theta_star"]), oracle.theta_star) <= 1e-6

    def test_lambda_block_of_another_n_is_refused(self, sin_data, tmp_path, capsys):
        # Equal weights integrate nothing; the 21-column blocks are still
        # checked against the 10-parameter checkpoint.
        base, rd, out = tmp_path / "base.json", tmp_path / "rd.jsonl", tmp_path / "out.json"
        assert main(["fit", str(sin_data[0]), "--gamma", "100", "--method", "rls",
                     "--out", str(base)]) == 0
        assert main(["gen", "reaction-diffusion", "--count", "5", "--out", str(rd)]) == 0
        capsys.readouterr()
        code = main(["tune", "--checkpoint", str(base), "--lambda-block", str(rd),
                     "--lambda", "1", "1", "--out", str(out)])
        assert code == 1
        assert "model expects 10" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_exactly_one_mode(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(empty), "--gamma", "1,1", "--out", str(ck))
        code = main(["tune", "--checkpoint", str(ck), "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_trace_requires_gamma_mode(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(empty), "--gamma", "1,1", "--out", str(ck))
        write_blocks([DataBlock(phi=[[1.0, 0.0]], y=[1.0])], tmp_path / "b.jsonl")
        code = main(
            ["tune", "--checkpoint", str(ck), "--lambda-block",
             str(tmp_path / "b.jsonl"), "--lambda", "1", "2",
             "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 1

    def test_identity_sweep_with_trace_writes_single_point(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(empty), "--gamma", "1,1", "--out", str(ck))
        trace = tmp_path / "t.csv"
        code, _ = run(
            capsys, "tune", "--checkpoint", str(ck), "--gamma", "1",
            "--trace", str(trace), "--out", str(tmp_path / "o.json"),
        )
        assert code == 0
        assert len(trace.read_text().splitlines()) == 2  # header + start point

    def test_non_checkpoint_input_is_usage_error(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"phi": [[1.0]], "y": [1.0]}')
        code = main(
            ["tune", "--checkpoint", str(bogus), "--gamma", "1",
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 1


class TestShiftBias:
    def test_same_bias_is_identity(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        base = tmp_path / "base.json"
        _, payload0 = run(
            capsys, "fit", str(path), "--gamma", "100", "--theta0", "0",
            "--step-size", "1e-3", "--out", str(base),
        )
        out = tmp_path / "shifted.json"
        code, payload1 = run(
            capsys, "shift-bias", "--checkpoint", str(base), "--theta0", "0",
            "--out", str(out),
        )
        assert code == 0
        assert payload0["theta_star"] == payload1["theta_star"]

    def test_matches_oracle_refit(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        base = tmp_path / "base.json"
        run(capsys, "fit", str(path), "--gamma", "100", "--method", "rls",
            "--out", str(base))
        out = tmp_path / "shifted.json"
        code, payload = run(
            capsys, "shift-bias", "--checkpoint", str(base), "--theta0", "0.3",
            "--out", str(out),
        )
        assert code == 0
        blocks = read_blocks(path)
        hyper = Hyperparams(gamma=np.full(10, 100.0), theta0=np.full(10, 0.3))
        oracle = solve_direct(hyper, blocks)
        assert relative_l1(np.array(payload["theta_star"]), oracle.theta_star) <= 1e-8
        ck = read_checkpoint(out)
        np.testing.assert_array_equal(ck.hyperparams.theta0, np.full(10, 0.3))


class TestPdhg:
    def test_scalar_soft_threshold(self, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0]], y=[1.0])], data)
        code, payload = run(
            capsys, "pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1",
            "--step-size", "1e-4", "--out", str(tmp_path / "inner.json"),
        )
        assert code == 0
        assert payload["converged"]
        assert abs(payload["theta_star"][0] - 0.9) <= 1e-6

    def test_inner_checkpoint_reuse(self, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0]], y=[1.0])], data)
        inner = tmp_path / "inner.json"
        _, first = run(
            capsys, "pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1",
            "--step-size", "1e-4", "--out", str(inner),
        )
        code, second = run(
            capsys, "pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1",
            "--checkpoint", str(inner), "--step-size", "1e-4",
        )
        assert code == 0
        assert second["theta_star"] == first["theta_star"]

    def test_run_stopped_at_max_iters_keeps_its_inner_checkpoint(self, tmp_path, capsys):
        # The inner state is exact whatever the iteration count, so a run that
        # stops at --max-iters exits 2 and still writes it, and a run with
        # more iterations converges from it.
        data = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0]], y=[1.0])], data)
        inner = tmp_path / "inner.json"
        argv = ["pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1"]
        code, payload = run(capsys, *argv, "--step-size", "1e-4", "--max-iters", "1",
                            "--out", str(inner))
        assert code == 2 and not payload["converged"]
        assert read_checkpoint(inner).metadata["converged"] == "False"
        code, payload = run(capsys, *argv, "--checkpoint", str(inner), "--max-iters", "1000")
        assert code == 0 and payload["converged"]
        assert abs(payload["theta_star"][0] - 0.9) <= 1e-6

    def test_checkpoint_with_wrong_gamma_rejected(self, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0]], y=[1.0])], data)
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(data), "--gamma", "5", "--out", str(ck))
        code = main(
            ["pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1",
             "--checkpoint", str(ck)]
        )
        assert code == 1

    def test_checkpoint_fitted_on_another_stream_rejected(self, sin_data, tmp_path, capsys):
        # The right gamma, but an inner state of the first 50 of 200 blocks:
        # its elapsed, the total weight of its stream, gives it away.
        path, _ = sin_data
        head = tmp_path / "head.jsonl"
        write_blocks(read_blocks(path)[:50], head)
        inner = tmp_path / "inner.json"
        code, _ = run(capsys, "fit", str(head), "--method", "rls", "--gamma", "2",
                      "--out", str(inner))
        assert code == 0 and read_checkpoint(inner).state.elapsed == 50.0
        out = tmp_path / "out.json"
        code = main(["pdhg", str(path), "--reg", "l1", "--reg-weight", "0.1",
                     "--checkpoint", str(inner), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err == (f"error: checkpoint was fitted on a stream of total weight "
                                f"50.0, {path} has total weight 200.0\n")
        # The inner state of the whole stream passes.
        run(capsys, "fit", str(path), "--method", "rls", "--gamma", "2", "--out", str(inner))
        code, payload = run(capsys, "pdhg", str(path), "--reg", "l1", "--reg-weight", "0.1",
                            "--checkpoint", str(inner))
        assert code == 0 and payload["converged"]

    def test_empty_data_takes_the_dimension_from_the_reg_weight_vector(self, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        code, payload = run(capsys, "pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1,0.2,0.3")
        assert code == 0
        assert payload["theta_star"] == [0.0, 0.0, 0.0]
        code = main(["pdhg", str(data), "--reg", "l1", "--reg-weight", "0.1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot infer the model dimension from an empty data file; "
            "pass --reg-weight as a comma-separated vector\n"
        )

    def test_failed_inner_fit_names_it_and_the_exact_fit(self, sin_data, tmp_path, capsys):
        # gamma = 1/sigma_theta = 2 on sin10x is too stiff for the default step.
        path, _ = sin_data
        code = main(["pdhg", str(path), "--reg", "l1", "--reg-weight", "0.1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "numerical failure: the inner ridge fit at gamma = 1/sigma_theta = 2.0 failed: "
            "forward run is too stiff for RK4 at step size 0.001"
        )
        assert f"`ricreg fit {path} --method rls --gamma 2.0 --out INNER.json`" in err
        assert "--checkpoint INNER.json" in err
        # The suggested inner state makes the same call work.
        inner = tmp_path / "inner.json"
        code, _ = run(capsys, "fit", str(path), "--method", "rls", "--gamma", "2.0",
                      "--out", str(inner))
        assert code == 0
        code, payload = run(capsys, "pdhg", str(path), "--reg", "l1", "--reg-weight", "0.1",
                            "--checkpoint", str(inner))
        assert code == 0
        assert payload["converged"]


class TestEval:
    def _checkpoint_from_sin_fit(self, tmp_path, capsys, sin_path):
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(sin_path), "--gamma", "100", "--method", "lsq",
            "--out", str(ck))
        return ck

    def test_perfect_truth_gives_zero(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        ck = self._checkpoint_from_sin_fit(tmp_path, capsys, path)
        from ricreg.bases import feature_matrix, get_basis

        theta = np.array(
            json.loads((ck).read_text())["q"]
        )  # theta0 = 0 so theta* = q
        grid = np.linspace(0, 10, 101)
        values = feature_matrix(get_basis("poly-trig-10"), grid) @ theta
        truth = tmp_path / "truth.csv"
        truth.write_text(
            "value\n" + "\n".join(repr(float(v)) for v in values) + "\n"
        )
        code, payload = run(
            capsys, "eval", "--checkpoint", str(ck), "--basis", "poly-trig-10",
            "--grid", "0,10,101", "--truth", str(truth),
        )
        assert code == 0
        assert payload["relative_l2"] <= 1e-12

    def test_double_scale_model_gives_one(self, sin_data, tmp_path, capsys):
        path, _ = sin_data
        ck = self._checkpoint_from_sin_fit(tmp_path, capsys, path)
        from ricreg.bases import feature_matrix, get_basis

        theta = np.array(json.loads(ck.read_text())["q"])
        grid = np.linspace(0, 10, 101)
        values = feature_matrix(get_basis("poly-trig-10"), grid) @ theta
        truth = tmp_path / "truth.csv"
        truth.write_text(
            "value\n" + "\n".join(repr(float(v / 2)) for v in values) + "\n"
        )
        code, payload = run(
            capsys, "eval", "--checkpoint", str(ck), "--basis", "poly-trig-10",
            "--grid", "0,10,101", "--truth", str(truth),
        )
        assert code == 0
        assert payload["relative_l2"] == pytest.approx(1.0, abs=1e-12)


class TestTruthCsv:
    @pytest.fixture
    def ck(self, sin_data, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        run(capsys, "fit", str(sin_data[0]), "--gamma", "100", "--method", "lsq",
            "--out", str(ck))
        return ck

    @staticmethod
    def _eval(capsys, ck, truth, *extra):
        code = main(["eval", "--checkpoint", str(ck), "--basis", "poly-trig-10",
                     "--grid", "0,10,3", "--truth", str(truth), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_blank_lines_are_skipped(self, ck, tmp_path, capsys):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("x,y\n0.0,1.0\n5.0,2.0\n10.0,3.0\n")
        spaced.write_text("\nx,y\n0.0,1.0\n\n5.0,2.0\n  \n10.0,3.0\n\n")
        expected = self._eval(capsys, ck, plain)
        assert expected[0] == 0
        assert self._eval(capsys, ck, spaced) == expected

    def test_headerless_file_reads_its_last_column(self, ck, tmp_path, capsys):
        with_header, headerless = tmp_path / "h.csv", tmp_path / "nh.csv"
        with_header.write_text("x,y\n0.0,1.0\n5.0,2.0\n10.0,3.0\n")
        headerless.write_text("0.0,1.0\n5.0,2.0\n10.0,3.0\n")
        expected = self._eval(capsys, ck, with_header)
        assert expected[0] == 0
        assert self._eval(capsys, ck, headerless) == expected

    @pytest.mark.parametrize("text", ["0.0,1.0\n5.0,2.0\n10.0,3.0\n",
                                      '0.0,1.0\n5.0,"2.0"\n10.0,3.0\n'],
                             ids=["bulk", "row-loop"])
    def test_headerless_file_refuses_a_named_column(self, ck, tmp_path, capsys, text):
        # Without a header there are no column names: the named column is
        # refused, not replaced by the last one.
        truth = tmp_path / "nh.csv"
        truth.write_text(text)
        for column in ("y", "nonexistent"):
            code, out, err = self._eval(capsys, ck, truth, "--truth-column", column)
            assert code == cli.EXIT_USAGE and out == ""
            assert err == f"error: {truth}: no header row, so no column {column!r}\n"

    @pytest.mark.parametrize("text, line, message", [
        ("x,y\n0.0,1.0\n\n0.5\n", 4, "short row: expected at least 2 columns, got 1"),
        ("x,y,z\n0.0,1.0,2.0\n0.5,1.5\n1.0,2.0,3.0\n", 3, "short row"),
        ("0.0,1.0\n0.5\n1.0,2.0\n", 2, "short row: expected at least 2 columns, got 1"),
        ("x,y\n0.0,1.0\n0.5,abc\n1.0,2.0\n", 3, "not a number: 'abc'"),
        ("x,y\n0.0,1.0\n0.5,\n1.0,2.0\n", 3, "not a number: ''"),
        ("x,y\n0.0,1.0\n0.5,nan\n1.0,2.0\n", 3, "not a finite number: 'nan'"),
        ("x,y\n0.0,1.0\n0.5,inf\n1.0,2.0\n", 3, "not a finite number: 'inf'"),
        ("x,y\n0.0,1.0\n0.5,1e500\n1.0,2.0\n", 3, "not a finite number: '1e500'"),
    ], ids=["blank-then-short", "short-of-three", "headerless-short", "letters", "empty-field",
            "nan", "inf", "overflow"])
    def test_bad_row_is_input_error_naming_its_line(self, ck, tmp_path, capsys, text, line,
                                                    message):
        truth = tmp_path / "bad.csv"
        truth.write_text(text)
        code, out, err = self._eval(capsys, ck, truth)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {truth}:{line}: ")
        assert message in err

    def test_missing_column_is_input_error(self, ck, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        truth.write_text("x,y\n0.0,1.0\n5.0,2.0\n10.0,3.0\n")
        code, out, err = self._eval(capsys, ck, truth, "--truth-column", "u")
        assert code == cli.EXIT_USAGE
        assert err == f"error: {truth}: no column 'u' in ['x', 'y']\n"

    def test_empty_file_is_input_error(self, ck, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        truth.write_text("\n\n")
        code, out, err = self._eval(capsys, ck, truth)
        assert code == cli.EXIT_USAGE
        assert err == f"error: {truth}: empty truth file\n"


# The truth reader as it was before the bulk pass, kept verbatim as the
# reference: the reader must return the same bits or raise the same error.
def _blank(row: list) -> bool:
    """A CSV row of a blank line: no field, or one field of whitespace."""
    return not row or (len(row) == 1 and not row[0].strip())


def _read_truth_csv(path, column: str | None) -> np.ndarray:
    """One column of a truth CSV, read in one pass; blank lines are skipped.

    A first row that parses as numbers is data (the file has no header) and
    its last column is read; otherwise it is the header, and ``column`` (by
    default the last one) is read.  A short row or a value ``float`` cannot
    parse raises ``ValueError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next((row for row in reader if not _blank(row)), None)
        if first is None:
            raise ValueError(f"{path}: empty truth file")
        try:
            values = [float(v) for v in first]
        except ValueError:  # a header row
            if column is not None and column not in first:
                raise ValueError(f"{path}: no column {column!r} in {first}")
            idx = first.index(column) if column is not None else len(first) - 1
            values = []
        else:
            idx = len(first) - 1
            values = [values[idx]]
        for row in reader:
            try:
                values.append(float(row[idx]))
            except (IndexError, ValueError):
                if _blank(row):
                    continue
                if len(row) <= idx:
                    raise ValueError(
                        f"{path}:{reader.line_num}: short row: expected at least "
                        f"{idx + 1} columns, got {len(row)}"
                    ) from None
                raise ValueError(f"{path}:{reader.line_num}: not a number: {row[idx]!r}") from None
    return np.array(values)


def _write_truth(tmp_path, text):
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _line_of(error, path):
    """The line number an error of the reader names, or None."""
    head, sep, rest = str(error).partition(f"{path}:")
    number = rest.split(":", 1)[0]
    return int(number) if not head and sep and number.isdigit() else None


def _headerless(path):
    """Whether the first non-blank row of a truth file parses as numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = next((row for row in csv.reader(fh) if not _blank(row)), None)
    try:
        [float(v) for v in first]
    except ValueError:
        return False
    return True


def _assert_reader_matches_reference(path, column):
    """The reader returns the reference's bits or raises its error, except
    that it refuses a non-finite value, at its line, where the reference took
    it or failed on a later line, and a named column of a file without a
    header, where the reference read the last column."""
    try:
        expected, error = _read_truth_csv(path, column), None
    except Exception as exc:
        expected, error = None, exc
    try:
        got = cli._read_truth_csv(path, column)
    except Exception as exc:
        if str(exc) == f"{path}: no header row, so no column {column!r}":
            assert column is not None and _headerless(path)
            return
        cell = str(exc).partition(": not a finite number: ")[2]
        line = _line_of(exc, path)
        if cell and line is not None and (
            error is None and not np.isfinite(expected).all()
            or error is not None and (_line_of(error, path) or 0) > line
        ):
            assert not np.isfinite(float(ast.literal_eval(cell)))
            return
        assert error is not None, f"the reference read {expected!r}"
        assert (type(exc), str(exc)) == (type(error), str(error))
        return
    assert error is None, f"the reference raised {error!r}"
    assert np.isfinite(expected).all()
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


_DIGITS = ["0.0", "1.5", "-0.0", "5e-324", "2.2250738585072014e-308", "1e-310",
           "0.30000000000000004", "1.2345678901234567e+300", "9007199254740993"]
_ODD = ["", "abc", "1_0", " 1.5 ", "\t2\t", "\x0c1.5", "1.5\x85", "1\x855", "\x0c", "\u0661",
        "nan", "-inf", "1e500", "0x10", "1.5#2", "#", '"2.5"', '"a,b"', '""', "1\x00"]


def _table(columns, rows, end, final=True):
    return end.join([",".join(columns), *(",".join(row) for row in rows)]) + (end if final else "")


_CASES = {
    "lf": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\n"),
    "crlf": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\r\n"),
    "cr": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\r"),
    "lf-no-final": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\n", final=False),
    "crlf-no-final": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\r\n", final=False),
    "cr-no-final": _table("xy", [["0", "1.5"], ["1", "2.5"]], "\r", final=False),
    "mixed-ends": "x,y\r\n0,1\r1,2\n2,3\r\r\n3,4",
    "headerless": "0,1.5\n1,2.5\n",
    "headerless-crlf": "0,1.5,7\r\n1,2.5,8\r\n",
    "header-only": "x,y\n",
    "blank-everywhere": "\n  \n\t\nx,y\n\n0,1\n \n\x0c\n1,2\n\n\n  ",
    "blank-crlf": "\r\n \r\nx,y\r\n\r\n0,1\r\n  \r\n1,2\r\n\r\n",
    "headerless-after-blanks": "\n\n  \n0,1\n\n1,2\n",
    "three-columns": _table("xuf", [["0", "1", "2"], ["3", "4", "5"]], "\r\n"),
    "four-columns": _table("abcd", [["0", "1", "2", "3"], ["4", "5", "6", "7"]], "\n"),
    "quoted-cell": 'x,y\n0,"1.5"\n1,2.5\n',
    "quoted-header": '"x","y"\n0,1.5\n',
    "quoted-comma": 'x,y,z\n"0,5",1.5,2\n1,2.5,3\n',
    "quoted-bad": 'x,y\n0,"1.5\n1,2.5\n',
    "short-row": "x,y,z\n0,1,2\n3,4\n5,6,7\n",
    "long-row": "x,y\n0,1\n2,3,4\n5,6\n",
    "short-and-long": "x,y\n0,1,2\n3\n",
    "long-headerless": "0,1\n2,3,4\n",
    "one-column": "y\n1\n2\n",
    "one-column-blank": "y\n1\n  \n2\n",
    "header-of-numbers-and-text": "0,abc\n1,2\n",
    "empty": "",
    "only-blank": "\n \r\n\t\r",
    "form-feed-in-line": "x,y\n0,1\x0c2\n",
    "nel-in-line": "x,y\n0,1\x852\n",
    "vertical-tab": "x,y\n0,1\x0b\n1,\x0b2\n",
    "line-separator": "x,y\n0,1\u2028\n",
    "nul": "x,y\n0\x00,1\n",
    "bom": "\ufeffx,y\n0,1\n",
    "long-field": "x,y\n0," + "0" * 131072 + "1\n1,2\n",
    "long-other-field": "x,y\n" + "0" * 131073 + ",1\n1,2\n",
}
_CASES.update({f"cell-{cell!r}": f"x,y\n0,1.5\n1,{cell}\n2,2.5\n" for cell in _DIGITS + _ODD})
_CASES.update({f"first-cell-{cell!r}": f"{cell},0\n1,2\n" for cell in _DIGITS + _ODD})


class TestTruthCsvMatchesReference:
    """The bulk reader against the row-by-row reference above."""

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_corpus(self, tmp_path, name):
        path = _write_truth(tmp_path, _CASES[name])
        for column in (None, "x", "y", "u", "f", "a", "d", "w"):
            _assert_reader_matches_reference(path, column)

    @settings(max_examples=300, deadline=None)
    @given(
        header=hst.booleans(),
        width=hst.integers(1, 4),
        rows=hst.lists(
            hst.one_of(
                hst.lists(hst.sampled_from(_DIGITS + _ODD), min_size=0, max_size=5),
                hst.lists(hst.floats(allow_nan=False, allow_infinity=False).map(repr),
                          min_size=1, max_size=4),
                hst.lists(hst.text("0123456789.eE+-_ \tnaifx\x0c\x85", max_size=8),
                          min_size=1, max_size=4),
                hst.sampled_from([[], [" "], ["\t"], ["\x0c"], ["\x85"]]),
            ),
            max_size=8,
        ),
        ends=hst.lists(hst.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
        final=hst.booleans(),
        column=hst.sampled_from([None, "a", "b", "c", "d", "e"]),
    )
    def test_random_files(self, tmp_path_factory, header, width, rows, ends, final, column):
        lines = ([",".join("abcd"[:width])] if header else []) + [",".join(r) for r in rows]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        if not final and text:
            text = text[: -len(ends[(len(lines) - 1) % len(ends)])]
        _assert_reader_matches_reference(_write_truth(tmp_path_factory.mktemp("t"), text), column)

    @pytest.mark.parametrize("name, row_loop", [
        ("blank-crlf", False), ("quoted-cell", True), ("nul", True)])
    def test_row_loop_runs_only_for_quoted_or_nul_text(self, tmp_path, monkeypatch,
                                                        name, row_loop):
        # csv before Python 3.11 refuses a NUL anywhere in a line, so such text
        # must reach csv.reader for the result to match on every version
        path = _write_truth(tmp_path, _CASES[name])
        expected = _read_truth_csv(path, "y")
        calls, reader = [], csv.reader

        def counting_reader(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        monkeypatch.setattr(cli.csv, "reader", counting_reader)
        assert np.array_equal(cli._read_truth_csv(path, "y"), expected)
        assert len(calls) == (1 if row_loop else 0)

    @pytest.mark.parametrize("name", ["crlf", "quoted-cell", "short-row", "cell-'nan'"])
    def test_file_is_opened_once(self, tmp_path, monkeypatch, name):
        path = _write_truth(tmp_path, _CASES[name])
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        try:
            cli._read_truth_csv(path, None)
        except ValueError:
            pass
        assert opened == [path]


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, payload = run(
            capsys, "bench", "--method", "rls", "--n", "4", "--m", "1",
            "--sizes", "10,40", "--step-size", "5e-2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,N,n,m,seconds_per_update"
        assert len(lines) == 3
        assert len(payload["rows"]) == 2

    def test_csv_matches_per_row_form(self, tmp_path, capsys):
        # One csv row per sample, the seconds written as repr(float).
        out = tmp_path / "bench.csv"
        code, payload = run(
            capsys, "bench", "--method", "rls,riccati", "--n", "4", "--sizes", "10,40",
            "--step-size", "5e-2", "--out", str(out),
        )
        assert code == 0
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "N", "n", "m", "seconds_per_update"])
            for row in payload["rows"]:
                writer.writerow([row["method"], row["N"], row["n"], row["m"],
                                 repr(row["seconds_per_update"])])
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFailedRunWritesNothing:
    """A run that exits 2 leaves no file behind: each command builds the
    solution before its first write.  The checkpoint ``bad.json`` holds a
    finite state whose evaluation point gamma * theta0 overflows."""

    GAMMA = ",".join(["1e300"] + ["100"] * 9)

    @pytest.fixture
    def session(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "sin10x", "--count", "30", "--seed", "1", "--out", "d.jsonl"]) == 0
        assert main(["fit", "d.jsonl", "--gamma", self.GAMMA, "--method", "rls",
                     "--out", "ck.json"]) == 0
        ck = read_checkpoint("ck.json")
        theta0 = np.zeros(10)
        theta0[0] = 1e10
        write_checkpoint(ck.with_hyperparams(ck.hyperparams.with_theta0(theta0)), "bad.json")
        write_blocks(read_blocks("d.jsonl")[:1], "one.jsonl")
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["fit", "d.jsonl", "--gamma", GAMMA, "--theta0", "1e10", "--method", "rls"],
        ["add", "--checkpoint", "bad.json", "one.jsonl"],
        ["remove", "--checkpoint", "bad.json", "one.jsonl"],
        ["tune", "--checkpoint", "bad.json", "--lambda-block", "one.jsonl",
         "--lambda", "1", "0.5"],
        ["tune", "--checkpoint", "bad.json", "--gamma", GAMMA.replace("100", "200"),
         "--step-size", "0.1", "--trace", "sweep.csv"],
    ], ids=["fit", "add", "remove", "tune-lambda", "tune-gamma-traced"])
    def test_exit_2_writes_no_file(self, session, capsys, argv):
        before = sorted(p.name for p in session.iterdir())
        assert main(argv + ["--out", "out.json"]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert sorted(p.name for p in session.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["fit", "d.jsonl", "--gamma", GAMMA, "--theta0", "1e10", "--method", "rls"],
        ["shift-bias", "--checkpoint", "ck.json", "--theta0", "1e308"],
    ], ids=["fit", "shift-bias"])
    def test_stderr_is_one_line(self, session, argv):
        # A fresh process under the default warning filters, where a NumPy
        # overflow warning would print ahead of the message.
        done = subprocess.run([sys.executable, "-m", "ricreg.cli", *argv, "--out", "out.json"],
                              cwd=session, env=_src_env(), capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: non-finite")
        assert len(done.stderr.splitlines()) == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["fit", "--no-such-flag"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_seed_is_refused_where_nothing_reads_it(self, sin_data, tmp_path, capsys):
        # --seed is taken by gen sin10x, gen reaction-diffusion and bench only.
        argv = ["fit", str(sin_data[0]), "--gamma", "100", "--out", str(tmp_path / "ck.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "0"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["sin10x", "reaction-diffusion"])
    def test_seed_above_u64_is_refused(self, tmp_path, capsys, problem):
        # 2**64 used to give the stream of seed 0 under a manifest naming 2**64.
        out = tmp_path / "big.jsonl"
        argv = ["gen", problem, "--count", "3", "--seed", str(2**64), "--out", str(out)]
        assert main(argv) == 1
        assert "2**64 - 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """``main`` parses with one parser per process; each call must behave as
    if it had a freshly built parser."""

    SEQUENCE = [
        ["tune", "--checkpoint", "ck.json", "--gamma", "10", "--step-size", "0.1",
         "--trace", "trace.csv", "--out", "t1.json"],
        ["tune", "--checkpoint", "ck.json", "--lambda-block", "one.jsonl",
         "--lambda", "1", "2", "--out", "t2.json"],
        ["add", "--checkpoint", "ck.json", "one.jsonl", "--step-size", "1e-2",
         "--out", "a1.json"],
        ["add", "--checkpoint", "ck.json", "one.jsonl", "--out", "a2.json"],
        ["fit", "one.jsonl", "--gamma", "1e6", "--method", "lsq", "--out", "f1.json"],
        ["fit", "one.jsonl", "--gamma", "1e6", "--out", "f2.json"],
        ["tune", "--checkpoint", "ck.json", "--out", "bad.json"],
    ]

    def _session(self, workdir, capsys, monkeypatch):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["gen", "sin10x", "--count", "30", "--seed", "1", "--out", "d.jsonl"]) == 0
        assert main(["fit", "d.jsonl", "--gamma", "100", "--method", "rls",
                     "--out", "ck.json"]) == 0
        write_blocks(read_blocks("d.jsonl")[:1], "one.jsonl")
        capsys.readouterr()
        results = []
        for argv in self.SEQUENCE:
            code = main(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return results, files

    def test_sequence_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        reused = self._session(tmp_path / "reused", capsys, monkeypatch)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self._session(tmp_path / "fresh", capsys, monkeypatch)
        assert [code for code, _, _ in reused[0]] == [0, 0, 0, 0, 0, 0, 1]
        assert reused == fresh
        assert reused[1]["a1.json"] != reused[1]["a2.json"]

    def test_built_once_and_not_at_import(self):
        assert cli.build_parser() is cli.build_parser()
        code = ("import ricreg.cli as c; import sys; "
                "sys.exit(c.build_parser.cache_info().currsize)")
        assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0

    @pytest.mark.parametrize("argv", [["--help"], ["tune", "--help"], ["add", "--nope"],
                                      ["frobnicate"], ["fit"]])
    def test_help_and_errors_match_fresh_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def call():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        main(["frobnicate"])  # the cached parser has handled an error before
        capsys.readouterr()
        reused = call()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert reused == call()
        assert reused[1] or reused[2]


class TestRuntimeImports:
    def test_runtime_imports_no_scipy(self):
        code = ("import sys, ricreg, ricreg.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestOutputContract:
    def test_default_output_is_single_line_json(self, tmp_path, capsys):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        code = main(["fit", str(empty), "--gamma", "1,1", "--out", str(tmp_path / "c.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 1
        json.loads(out)

    def test_pretty_output_is_indented(self, tmp_path, capsys):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        code = main(["fit", str(empty), "--gamma", "1,1", "--pretty",
                     "--out", str(tmp_path / "c.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") > 2
        json.loads(out)


class TestReactionDiffusionPipeline:
    def test_gen_fit_eval_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "rd.jsonl"
        code, payload = run(
            capsys, "gen", "reaction-diffusion", "--count", "120",
            "--noise", "0.1", "--lambda-b", "1.0", "--seed", "5",
            "--out", str(data),
        )
        assert code == 0
        truth_header = (tmp_path / "rd.jsonl.truth.csv").read_text().splitlines()[0]
        assert truth_header == "x,u,f"
        ck = tmp_path / "ck.json"
        code, _ = run(
            capsys, "fit", str(data), "--gamma", "1", "--step-size", "1e-4",
            "--out", str(ck),
        )
        assert code == 0
        code, payload = run(
            capsys, "eval", "--checkpoint", str(ck), "--basis", "fourier-21",
            "--grid", "0,1,257", "--truth", str(tmp_path / "rd.jsonl.truth.csv"),
            "--truth-column", "u",
        )
        assert code == 0
        assert payload["relative_l2"] < 0.10


class TestCalibrationWorkflows:
    """Post-training data edits through the CLI on the PDE-residual problem."""

    @staticmethod
    def _residual_block(x, f_value):
        from ricreg.bases import get_basis, residual_matrix
        from ricreg.problems import REACTION_DIFFUSIVITY, REACTION_RATE

        basis = get_basis("fourier-21")
        row = residual_matrix(basis, [x], REACTION_DIFFUSIVITY, REACTION_RATE)[0]
        return DataBlock(phi=row[None, :], y=[f_value])

    @staticmethod
    def _solution_error(payload, eval_grid, truth_u):
        from ricreg.bases import feature_matrix, get_basis
        from ricreg.problems import relative_l2

        design = feature_matrix(get_basis("fourier-21"), eval_grid)
        return relative_l2(design @ np.array(payload["theta_star"]), truth_u)

    def test_removing_outliers_improves_solution(self, tmp_path, capsys):
        from ricreg.problems import gen_reaction_diffusion

        prob = gen_reaction_diffusion(200, seed=9, noise_scale=0.1, lambda_b=1.0)
        outliers = [
            DataBlock(phi=prob.blocks[3].phi, y=prob.blocks[3].y + 25.0),
            DataBlock(phi=prob.blocks[90].phi, y=prob.blocks[90].y - 30.0),
        ]
        data, bad = tmp_path / "rd.jsonl", tmp_path / "outliers.jsonl"
        write_blocks(list(prob.blocks) + outliers, data)
        write_blocks(outliers, bad)
        ck = tmp_path / "ck.json"
        code, before = run(
            capsys, "fit", str(data), "--gamma", "1", "--step-size", "1e-4",
            "--out", str(ck),
        )
        assert code == 0
        code, after = run(
            capsys, "remove", "--checkpoint", str(ck), str(bad),
            "--step-size", "1e-4", "--out", str(tmp_path / "ck2.json"),
        )
        assert code == 0
        truth_u = prob.truth["u"](prob.eval_grid)
        err_before = self._solution_error(before, prob.eval_grid, truth_u)
        err_after = self._solution_error(after, prob.eval_grid, truth_u)
        assert err_after < err_before

    def test_adding_coverage_near_peaks_halves_source_error(self, tmp_path, capsys):
        from ricreg.bases import get_basis, residual_matrix
        from ricreg.problems import (
            REACTION_DIFFUSIVITY,
            REACTION_RATE,
            gen_reaction_diffusion,
            relative_l2,
        )
        from ricreg.rng import Xoshiro256pp

        boundary_only = gen_reaction_diffusion(0, seed=21, noise_scale=0.1)
        truth_f = boundary_only.truth["f"]
        rng = Xoshiro256pp(77)

        def noisy_block(x):
            return self._residual_block(x, float(truth_f(x)) + 0.1 * rng.gaussian())

        # Training data concentrated mid-domain misses both extrema of f.
        sparse = [noisy_block(0.3 + 0.4 * rng.uniform()) for _ in range(25)]
        data = tmp_path / "sparse.jsonl"
        write_blocks(sparse + list(boundary_only.blocks), data)
        ck = tmp_path / "ck.json"
        code, before = run(
            capsys, "fit", str(data), "--gamma", "1", "--step-size", "1e-4",
            "--out", str(ck),
        )
        assert code == 0
        extra = [noisy_block(0.05 + 0.25 * rng.uniform()) for _ in range(20)]
        extra += [noisy_block(0.70 + 0.25 * rng.uniform()) for _ in range(20)]
        patch = tmp_path / "patch.jsonl"
        write_blocks(extra, patch)
        code, after = run(
            capsys, "add", "--checkpoint", str(ck), str(patch),
            "--step-size", "1e-4", "--out", str(tmp_path / "ck2.json"),
        )
        assert code == 0
        grid = boundary_only.eval_grid
        design = residual_matrix(get_basis("fourier-21"), grid, REACTION_DIFFUSIVITY,
                                 REACTION_RATE)
        reference = truth_f(grid)
        err_before = relative_l2(design @ np.array(before["theta_star"]), reference)
        err_after = relative_l2(design @ np.array(after["theta_star"]), reference)
        assert err_after < err_before / 2


class TestSparseIdentificationCommand:
    def test_dominant_coefficient_recovered(self, tmp_path, capsys):
        out = tmp_path / "ko"
        code, payload = run(
            capsys, "gen", "ko", "--grid-count", "300", "--solver-h", "1e-3",
            "--fd-h", "1e-2", "--out", str(out),
        )
        assert code == 0
        code, result = run(
            capsys, "pdhg", payload["blocks"][0], "--reg", "l1",
            "--reg-weight", "0.1", "--sigma-theta", "0.5", "--sigma-w", "0.5",
            "--step-size", "1e-2", "--out", str(tmp_path / "inner.json"),
        )
        assert code == 0
        pattern = np.array(result["sparsity_pattern"])
        assert int(np.argmax(np.abs(pattern))) == 8  # the x2*x3 feature
        assert abs(pattern[8] - 1.0) <= 0.05
        assert np.max(np.abs(np.delete(pattern, 8))) <= 0.05


class TestLargeStreamRegression:
    def test_long_stream_reaches_low_error(self, tmp_path, capsys):
        data = tmp_path / "big.jsonl"
        code, _ = run(
            capsys, "gen", "sin10x", "--count", "20000", "--noise", "1.0",
            "--seed", "0", "--out", str(data),
        )
        assert code == 0
        ck = tmp_path / "ck.json"
        code, _ = run(
            capsys, "fit", str(data), "--gamma", "100", "--step-size", "1e-3",
            "--out", str(ck),
        )
        assert code == 0
        code, payload = run(
            capsys, "eval", "--checkpoint", str(ck), "--basis", "poly-trig-10",
            "--grid", "0,10,1001", "--truth", str(tmp_path / "big.jsonl.truth.csv"),
            "--truth-column", "y",
        )
        assert code == 0
        assert payload["relative_l2"] < 0.05
