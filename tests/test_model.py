import itertools
import json

import numpy as np
import pytest

from ricreg.model import (
    Checkpoint,
    block_to_dict,
    checkpoint_to_dict,
    DataBlock,
    Hyperparams,
    ModelSolution,
    NumericsError,
    data_fit_value,
    RiccatiState,
    new_state,
    read_blocks,
    read_checkpoint,
    validate_block,
    write_blocks,
    write_checkpoint,
)


class TestDataBlock:
    def test_valid_block(self):
        b = DataBlock(phi=[[1.0, 2.0]], y=[1.0], lam=1.0)
        assert b.m == 1 and b.n == 2

    def test_y_length_must_match_rows(self):
        with pytest.raises(ValueError, match="y length"):
            DataBlock(phi=[[1.0, 2.0]], y=[1.0, 2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            DataBlock(phi=[[1.0, 2.0]], y=[1.0], lam=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DataBlock(phi=[[np.nan, 2.0]], y=[1.0])
        with pytest.raises(ValueError, match="finite"):
            DataBlock(phi=[[1.0, 2.0]], y=[np.inf])

    def test_arrays_are_read_only(self):
        b = DataBlock(phi=[[1.0, 2.0]], y=[1.0])
        with pytest.raises(ValueError):
            b.phi[0, 0] = 5.0
        with pytest.raises(ValueError):
            b.y[0] = 5.0

    def test_constructor_copies_input(self):
        phi = np.array([[1.0, 2.0]])
        b = DataBlock(phi=phi, y=[1.0])
        phi[0, 0] = 99.0
        assert b.phi[0, 0] == 1.0


class TestValidateBlock:
    def test_matching_dimension_ok(self):
        validate_block(DataBlock(phi=[[1.0, 2.0]], y=[1.0]), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature columns"):
            validate_block(DataBlock(phi=[[1.0, 2.0]], y=[1.0]), 3)


class TestDataFitValue:
    def test_matches_block_by_block_sum(self):
        rng = np.random.default_rng(4)
        blocks = [
            DataBlock(phi=rng.normal(size=(m, 3)), y=rng.normal(size=m), lam=lam)
            for m, lam in ((1, 0.5), (4, 0.0), (5, 1.7), (2, 1.0))
        ]
        theta = rng.normal(size=3)
        ref = sum(0.5 * b.lam * float(np.sum((b.phi @ theta - b.y) ** 2)) for b in blocks)
        assert data_fit_value(theta, blocks) == pytest.approx(ref, rel=1e-14)
        assert data_fit_value(theta, []) == 0.0
        assert data_fit_value(theta, blocks[1:2]) == 0.0


class TestHyperparams:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Hyperparams(gamma=[1.0, 0.0], theta0=[0.0, 0.0])
        with pytest.raises(ValueError, match="gamma"):
            Hyperparams(gamma=[1.0, -2.0], theta0=[0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Hyperparams(gamma=[1.0, 2.0], theta0=[0.0])

    def test_evaluation_point(self):
        h = Hyperparams(gamma=[2.0, 4.0], theta0=[1.0, -0.5])
        np.testing.assert_array_equal(h.evaluation_point(), [2.0, -2.0])

    @staticmethod
    def _message(make):
        with pytest.raises(ValueError) as exc:
            make()
        return str(exc.value)

    @pytest.mark.parametrize(
        "theta0", [[np.nan, 0.0], [0.0, -np.inf], [0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]]
    )
    def test_with_theta0_rejects_with_the_constructor_message(self, theta0):
        h = Hyperparams(gamma=[1.0, 2.0], theta0=[0.0, 0.0])
        expected = self._message(lambda: Hyperparams(gamma=h.gamma, theta0=theta0))
        assert self._message(lambda: h.with_theta0(theta0)) == expected

    @pytest.mark.parametrize(
        "gamma",
        [[np.nan, 1.0], [1.0, np.inf], [0.0, 1.0], [1.0, -2.0], [np.nan, -1.0], [1.0],
         [[1.0, 1.0]]],
    )
    def test_with_gamma_rejects_with_the_constructor_message(self, gamma):
        h = Hyperparams(gamma=[1.0, 2.0], theta0=[0.5, 0.0])
        expected = self._message(lambda: Hyperparams(gamma=gamma, theta0=h.theta0))
        assert self._message(lambda: h.with_gamma(gamma)) == expected


class TestNewState:
    def test_identity_gamma(self):
        st = new_state(Hyperparams(gamma=[1.0, 1.0], theta0=[0.0, 0.0]))
        np.testing.assert_array_equal(st.p, np.eye(2))
        np.testing.assert_array_equal(st.q, [0.0, 0.0])
        assert st.r == 0.0 and st.elapsed == 0.0

    def test_uniform_large_gamma(self):
        st = new_state(Hyperparams(gamma=np.full(10, 100.0), theta0=np.zeros(10)))
        np.testing.assert_array_equal(st.p, 0.01 * np.eye(10))

    def test_diagonal_reciprocal(self):
        st = new_state(Hyperparams(gamma=[2.0, 4.0], theta0=[1.0, 1.0]))
        np.testing.assert_array_equal(st.p, np.diag([0.5, 0.25]))

    def test_fresh_state_is_spd_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gamma = rng.uniform(0.01, 50.0, size=rng.integers(1, 8))
            st = new_state(Hyperparams(gamma=gamma, theta0=np.zeros(len(gamma))))
            assert st.is_spd()
            np.testing.assert_array_equal(st.p, np.diag(1.0 / gamma))

    def test_untracked_loss(self):
        st = RiccatiState(p=[[1.0]], q=[0.0], r=None)
        assert st.r is None
        assert new_state(Hyperparams(gamma=[1.0], theta0=[0.0])).r == 0.0


class TestRiccatiState:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            RiccatiState(p=[[np.nan]], q=[0.0])

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            RiccatiState(p=[[1.0]], q=[0.0], elapsed=-1.0)

    def test_symmetry_defect(self):
        st = RiccatiState(p=[[1.0, 2.0], [2.0 + 1e-13, 1.0]], q=[0.0, 0.0])
        assert 0 < st.symmetry_defect() < 1e-12


class TestModelSolution:
    def test_consistent_split_accepted(self):
        ModelSolution(theta_star=[1.0], data_fit=1.0, reg_value=0.5, total_loss=1.5)

    def test_inconsistent_split_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelSolution(theta_star=[1.0], data_fit=1.0, reg_value=0.5, total_loss=2.0)

    def test_partial_diagnostics_allowed(self):
        sol = ModelSolution(theta_star=[1.0], total_loss=3.0)
        assert sol.data_fit is None and sol.reg_value is None


class TestCheckpointFormat:
    def _random_checkpoint(self, rng, with_r=True):
        n = 3
        a = rng.normal(size=(n, n))
        p = a @ a.T + np.eye(n)
        hyper = Hyperparams(gamma=rng.uniform(0.1, 3.0, n), theta0=rng.normal(size=n))
        state = RiccatiState(
            p=p,
            q=rng.normal(size=n),
            r=float(rng.normal()) if with_r else None,
            elapsed=float(rng.uniform(0, 10)),
        )
        return Checkpoint(
            version="1", n=n, hyperparams=hyper, state=state,
            metadata={"seed": "7", "note": "roundtrip"},
        )

    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for with_r in (True, False):
            ck = self._random_checkpoint(rng, with_r)
            path = tmp_path / f"ck_{with_r}.json"
            write_checkpoint(ck, path)
            back = read_checkpoint(path)
            assert np.array_equal(back.state.p, ck.state.p)
            assert np.array_equal(back.state.q, ck.state.q)
            assert back.state.r == ck.state.r
            assert back.state.elapsed == ck.state.elapsed
            assert np.array_equal(back.hyperparams.gamma, ck.hyperparams.gamma)
            assert np.array_equal(back.hyperparams.theta0, ck.hyperparams.theta0)
            assert back.metadata == ck.metadata

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        ck = self._random_checkpoint(np.random.default_rng(13))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_checkpoint(ck, p1)
        write_checkpoint(read_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unsupported_version_rejected(self, tmp_path):
        ck = self._random_checkpoint(np.random.default_rng(1))
        path = tmp_path / "ck.json"
        write_checkpoint(ck, path)
        doc = json.loads(path.read_text())
        doc["version"] = "99"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    @pytest.mark.parametrize("version", ["2", 1, "1.0"])
    def test_unsupported_version_refused_at_construction(self, tmp_path, version):
        # A checkpoint that read_checkpoint would refuse is never built, so
        # never written.
        ck = self._random_checkpoint(np.random.default_rng(1))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            Checkpoint(version=version, n=ck.n, hyperparams=ck.hyperparams, state=ck.state)

    def test_required_keys_present(self, tmp_path):
        ck = self._random_checkpoint(np.random.default_rng(2))
        path = tmp_path / "ck.json"
        write_checkpoint(ck, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "version", "n", "gamma", "theta0", "p", "q", "r", "elapsed", "metadata",
        }
        assert doc["version"] == "1"
        assert len(doc["p"]) == ck.n * ck.n

    def test_bytes_match_streaming_writer(self, tmp_path):
        # Reference: the json.dump writer that checkpoints were written with.
        def reference_write(ck, path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(checkpoint_to_dict(ck), fh)
                fh.write("\n")

        rng = np.random.default_rng(5)
        cks = [self._random_checkpoint(rng, with_r) for with_r in (True, False)]
        cks.append(cks[0].with_state(new_state(cks[0].hyperparams)))
        cks.append(Checkpoint(version="1", n=cks[0].n, hyperparams=cks[0].hyperparams,
                              state=cks[0].state, metadata={"step_size": repr(1e-3),
                                                            "note": "caf\u00e9 \"quoted\"\n"}))
        for i, ck in enumerate(cks):
            ours, ref = tmp_path / f"ours{i}.json", tmp_path / f"ref{i}.json"
            write_checkpoint(ck, ours)
            reference_write(ck, ref)
            assert ours.read_bytes() == ref.read_bytes()


class TestBlockStreamFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = [
            DataBlock(
                phi=rng.normal(size=(m, 4)), y=rng.normal(size=m),
                lam=float(rng.uniform(0, 2)),
            )
            for m in (1, 2, 3)
        ]
        path = tmp_path / "blocks.jsonl"
        write_blocks(blocks, path)
        back = read_blocks(path)
        assert len(back) == len(blocks)
        for a, b in zip(back, blocks):
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.y, b.y)
            assert a.lam == b.lam

    def test_bytes_match_streaming_writer(self, tmp_path):
        # Reference: the json.dump writer that block streams were written with.
        def reference_write(blocks, path):
            with open(path, "w", encoding="utf-8") as fh:
                for block in blocks:
                    json.dump(block_to_dict(block), fh)
                    fh.write("\n")

        rng = np.random.default_rng(11)
        blocks = [
            DataBlock(phi=rng.normal(size=(m, 5)) * 10.0 ** rng.integers(-300, 300),
                      y=rng.normal(size=m), lam=float(rng.uniform(0, 2)))
            for m in (1, 3, 7)
        ]
        blocks.append(DataBlock(phi=np.zeros((2, 5)), y=[-0.0, 1e-320], lam=0.0))
        for i, stream in enumerate((blocks, blocks[:1], [])):
            ours, ref = tmp_path / f"ours{i}.jsonl", tmp_path / f"ref{i}.jsonl"
            write_blocks(stream, ours)
            reference_write(stream, ref)
            assert ours.read_bytes() == ref.read_bytes()

    def test_record_schema(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_blocks([DataBlock(phi=[[1.0, 2.0]], y=[3.0], lam=0.5)], path)
        doc = json.loads(path.read_text().strip())
        assert doc == {"phi": [[1.0, 2.0]], "y": [3.0], "lambda": 0.5}

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"phi": [[1.0]], "y": [1.0]}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            read_blocks(path)

    @staticmethod
    def _records(rng, shapes):
        return [
            {"phi": rng.normal(size=(m, n)).tolist(), "y": rng.normal(size=m).tolist(),
             "lambda": lam}
            for m, n, lam in shapes
        ]

    @pytest.mark.parametrize("mixed_n", [False, True])
    def test_blocks_equal_the_constructor_read_only_and_disjoint(self, tmp_path, mixed_n):
        rng = np.random.default_rng(21)
        # m > n, lam = 0, and (with mixed_n) blocks of another width.
        records = self._records(
            rng, [(1, 3, 0.5), (2, 3, 0.0), (5, 2 if mixed_n else 3, 1.25), (1, 3, 2.0)]
        )
        records.insert(2, {"phi": [[1.0, -0.0, 2.0]], "y": [3]})  # default lambda
        lines = [json.dumps(r) for r in records]
        path = tmp_path / "s.jsonl"
        path.write_text("\n" + lines[0] + "\n\n   \n" + "\n".join(lines[1:]) + "\n")
        blocks = read_blocks(path)
        assert len(blocks) == len(records)
        for block, rec in zip(blocks, records):
            ref = DataBlock(phi=rec["phi"], y=rec["y"], lam=rec.get("lambda", 1.0))
            for got, want in ((block.phi, ref.phi), (block.y, ref.y)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            assert type(block.lam) is float and block.lam == ref.lam
        with pytest.raises(ValueError):
            blocks[0].phi[0, 0] = 1.0
        if not mixed_n:  # one stack, one view per block
            assert all(b.phi.base is blocks[0].phi.base for b in blocks)
        for a, b in itertools.combinations(blocks, 2):
            assert not np.shares_memory(a.phi, b.phi)
            assert not np.shares_memory(a.y, b.y)

    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    def test_empty_stream(self, tmp_path, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        assert read_blocks(path) == []

    def test_rewrite_gives_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(22)
        blocks = [
            DataBlock(phi=rng.normal(size=(m, 4)) * 10.0 ** rng.integers(-300, 300),
                      y=rng.normal(size=m), lam=lam)
            for m, lam in ((1, 1.0), (6, 0.25), (3, 0.0))
        ]
        blocks.append(DataBlock(phi=np.zeros((2, 4)), y=[-0.0, 1e-320], lam=3.0))
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_blocks(blocks, first)
        write_blocks(read_blocks(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("record", [
        '{"phi": [[1.0, 2.0]], "y": [1.0], "lambda": null}',
        '{"phi": [[1.0, 2.0], [3.0]], "y": [1.0, 2.0]}',
        '{"phi": [[1.0, 2.0]], "y": [1.0, 2.0]}',
        '{"phi": [[1.0, 2.0], [3.0, 4.0]], "y": [1.0]}',
        '{"phi": [[NaN, 2.0]], "y": [1.0]}',
        '{"phi": [[1.0, 2.0]], "y": [Infinity]}',
        '{"phi": [[1.0, 2.0]], "y": [1.0], "lambda": -1.0}',
        '{"phi": [[1.0, 2.0]], "y": [1.0], "lambda": Infinity}',
        '{"phi": [], "y": []}',
        '{"phi": [[1.0, 2.0]], "y": "1"}',
        '{"phi": [1.0, 2.0], "y": [1.0, 2.0]}',
    ])
    def test_bad_record_raises_the_constructor_message(self, tmp_path, record):
        doc = json.loads(record)
        with pytest.raises((ValueError, TypeError)) as ctor:
            DataBlock(phi=doc["phi"], y=doc["y"], lam=doc.get("lambda", 1.0))
        path = tmp_path / "bad.jsonl"
        path.write_text('{"phi": [[1.0, 2.0]], "y": [1.0]}\n\n' + record + "\n")
        with pytest.raises(ValueError) as exc:
            read_blocks(path)
        assert str(exc.value) == f"{path}:3: bad block record: {ctor.value}"

    @pytest.mark.parametrize("record, message", [
        ("[1, 2]", "expected a JSON object, got list"),
        ("3.5", "expected a JSON object, got float"),
        ('{"phi": [[1.0]]}', "'y'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"phi": [[1.0]], "y": [1.0]}\n\n' + record + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl:3: bad block record: .*{message}"):
            read_blocks(path)

    @pytest.mark.parametrize("record", [
        '{"phi": [[1.0]], "y": [1.0]}   x',
        '{"phi": [[1.0]], "y": [1.0]}{"phi": [[2.0]], "y": [2.0]}',
        '{"phi": [[1.0]], "y": [1.0]} {"phi": [[2.0]], "y": [2.0]}',
        '\ufeff{"phi": [[1.0]], "y": [1.0]}',
        '{"phi": [[1.0]], "y": [1.0]',
        "nan",
    ])
    def test_undecodable_line_raises_the_json_loads_message(self, tmp_path, record):
        # Lines are decoded with raw_decode; one that is not exactly one JSON
        # value gets json.loads's error.
        with pytest.raises(json.JSONDecodeError) as loads:
            json.loads(record)
        path = tmp_path / "bad.jsonl"
        path.write_text('{"phi": [[1.0]], "y": [1.0]}\n\n  ' + record + " \n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_blocks(path)
        assert str(exc.value) == f"{path}:3: bad block record: {loads.value}"
