from types import SimpleNamespace

import pytest

from ricreg import bench
from ricreg.bench import BenchReport, bench_incremental


class TestBenchIncremental:
    @pytest.mark.parametrize("method", ["riccati", "rls", "lsq"])
    def test_report_shape(self, method):
        report = bench_incremental(
            n=4, m=1, sizes=[20, 80], method=method, h=5e-2, repetitions=20
        )
        assert report.method == method
        assert [size for size, _ in report.samples] == [20, 80]
        assert all(sec > 0 for sec in report.seconds())
        assert report.repetitions >= 20
        assert report.ratio() >= 1.0 or report.ratio() > 0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            bench_incremental(n=4, m=1, sizes=[10], method="qr")

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            bench_incremental(n=4, m=1, sizes=[100, 10], method="rls")

    def test_rejects_too_few_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            bench_incremental(n=4, m=1, sizes=[10], method="rls", repetitions=5)

    def test_ratio_helper(self):
        report = BenchReport(
            method="rls", n=2, m=1, samples=((10, 2e-6), (100, 3e-6)), repetitions=20
        )
        assert report.ratio() == pytest.approx(1.5)


class TestInterleavedRounds:
    def test_rounds_alternate_between_sizes(self, monkeypatch):
        # A fake clock that only the updates advance: "small" takes 1 ms per
        # call (batch of 2), "large" 2.5 ms (batch of 1).
        clock = [0.0]
        log = []

        def fake(name, seconds):
            def update():
                log.append(name)
                clock[0] += seconds
            return update

        monkeypatch.setattr(bench, "time", SimpleNamespace(process_time=lambda: clock[0]))
        medians = bench._time_updates([fake("small", 1e-3), fake("large", 2.5e-3)], 20)
        assert medians == pytest.approx([1e-3, 2.5e-3])
        # Warm-up and calibration of every size come first, then each of the
        # max(ceil(20 / 2), ceil(20 / 1)) = 20 rounds times one batch of each.
        assert log[:4] == ["small", "small", "large", "large"]
        assert log[4:] == ["small", "small", "large"] * 20

    def test_every_size_is_built_before_any_is_timed(self, monkeypatch):
        built = []
        original = bench.rls_fit

        def recording_fit(hyper, blocks):
            built.append(len(blocks))
            return original(hyper, blocks)

        def timing(updates, repetitions):
            assert built == [20, 80]
            return [1.0] * len(updates)

        monkeypatch.setattr(bench, "rls_fit", recording_fit)
        monkeypatch.setattr(bench, "_time_updates", timing)
        report = bench_incremental(n=4, m=1, sizes=[20, 80], method="rls")
        assert report.samples == ((20, 1.0), (80, 1.0))
