import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp.core import ContractViolation, Signal, add, scale
from sigdecomp.metrics import (
    QRF_SATURATION_DB,
    QrfReport,
    _max_weight_matching,
    match_components,
    qrf,
)


def tone(freq_hz, duration_s, fs, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return Signal(amp * np.sin(2 * np.pi * freq_hz * t), fs)


class TestQrf:
    def test_perfect_match_saturates(self):
        s = tone(5.0, 1.0, 64.0)
        assert qrf(s, s) == QRF_SATURATION_DB

    def test_zero_estimate_gives_zero(self):
        s = tone(5.0, 1.0, 64.0)
        assert qrf(scale(s, 0.0), s) == pytest.approx(0.0, abs=1e-12)

    def test_ten_percent_scale_gives_twenty(self):
        s = tone(5.0, 1.0, 64.0)
        assert qrf(scale(s, 1.1), s) == pytest.approx(20.0, abs=1e-9)

    def test_zero_reference_rejected(self):
        s = tone(5.0, 1.0, 64.0)
        with pytest.raises(ContractViolation):
            qrf(s, scale(s, 0.0))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_error_scale_covariance(self, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        fs = 64.0
        s = Signal(gen.normal(size=128), fs)
        e = Signal(gen.normal(size=128) * 0.3, fs)
        lhs = qrf(add(s, scale(e, 0.1)), s)
        rhs = qrf(add(s, e), s) + 20.0
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_sample_permutation_invariance(self, rng):
        x = rng.normal(size=64)
        e = rng.normal(size=64) * 0.2
        perm = rng.permutation(64)
        a = qrf(Signal(x + e, 8.0), Signal(x, 8.0))
        b = qrf(Signal((x + e)[perm], 8.0), Signal(x[perm], 8.0))
        assert a == pytest.approx(b, abs=1e-12)


class TestMatching:
    def test_identity_assignment(self):
        refs = [tone(5.0, 1.0, 64.0), tone(13.0, 1.0, 64.0)]
        report = match_components(refs, refs)
        assert report.assignment == ((0, 0), (1, 1))
        assert all(v == QRF_SATURATION_DB for v in report.per_mode_qrf_db)

    def test_reversed_assignment_recovered(self):
        refs = [tone(5.0, 1.0, 64.0), tone(13.0, 1.0, 64.0)]
        report = match_components(refs[::-1], refs)
        assert report.assignment == ((1, 0), (0, 1))

    def test_scaled_pair_example(self):
        r1 = tone(5.0, 1.0, 64.0)
        r2 = tone(13.0, 1.0, 64.0)
        report = match_components([scale(r1, 0.9), r2], [r1, r2])
        assert report.assignment == ((0, 0), (1, 1))
        assert report.per_mode_qrf_db[0] == pytest.approx(20.0, abs=1e-9)
        assert report.per_mode_qrf_db[1] == QRF_SATURATION_DB

    def test_exhaustive_matches_enumeration_oracle(self, rng):
        fs = 64.0
        for _ in range(5):
            k = int(rng.integers(2, 5))
            refs = [Signal(rng.normal(size=96), fs) for _ in range(k)]
            ests = [
                Signal(refs[i].samples + 0.3 * rng.normal(size=96), fs) for i in range(k)
            ]
            rng.shuffle(ests)
            report = match_components(ests, refs)
            table = np.array([[qrf(e, r) for r in refs] for e in ests])
            best = max(
                sum(table[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            assert report.total_qrf_db == pytest.approx(best, abs=1e-9)

    def test_matching_equals_scipy_reference(self, rng):
        from scipy.optimize import linear_sum_assignment

        for trial in range(200):
            n_e, n_r = (int(v) for v in rng.integers(1, 13, size=2))
            table = 20.0 * rng.normal(size=(n_e, n_r))
            if trial % 2:
                table = np.round(table / 10.0)  # ties
            pairs = _max_weight_matching(table)
            assert len(pairs) == min(n_e, n_r)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            rows, cols = linear_sum_assignment(table, maximize=True)
            total = sum(table[i, j] for i, j in pairs)
            assert total == pytest.approx(table[rows, cols].sum(), abs=1e-9)

    def test_surplus_modes_unmatched(self):
        refs = [tone(5.0, 1.0, 64.0)]
        ests = [tone(5.0, 1.0, 64.0), tone(13.0, 1.0, 64.0)]
        report = match_components(ests, refs)
        assert len(report.assignment) == 1
        assert report.unmatched_est == (1,)

    def test_many_modes_identity(self, rng):
        fs = 64.0
        refs = [Signal(rng.normal(size=64), fs) for _ in range(10)]
        ests = [Signal(r.samples + 0.1 * rng.normal(size=64), fs) for r in refs]
        report = match_components(ests, refs)
        assert report.assignment == tuple((i, i) for i in range(10))

    def test_exact_beyond_eight_modes(self):
        # nine pairs: seven exact-up-to-scale ones, plus two refs r7 and
        # r8 = r7 + 0.2 b that sit close together.  Est 7 scores best on
        # r7 (20.9 dB), so best-pair-first takes that and leaves est 8 on
        # r8 (10.6 dB); crossing them scores 19.3 + 20.0 dB instead.
        fs = 64.0
        basis = np.linalg.qr(np.random.Generator(np.random.Philox(3)).normal(size=(64, 9)))[0].T
        refs = [Signal(b, fs) for b in basis[:8]] + [Signal(basis[7] + 0.2 * basis[8], fs)]
        ests = [Signal(1.01 * b, fs) for b in basis[:7]]
        ests += [Signal(basis[7] + 0.09 * basis[8], fs), Signal(basis[7] - 0.1 * basis[8], fs)]
        report = match_components(ests, refs)
        assert report.assignment == tuple((i, i) for i in range(7)) + ((8, 7), (7, 8))
        crossed = qrf(ests[8], refs[7]) + qrf(ests[7], refs[8])
        assert report.total_qrf_db == pytest.approx(7 * qrf(ests[0], refs[0]) + crossed, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            match_components([], [tone(5.0, 1.0, 64.0)])


class TestTotals:
    def test_empty_report(self):
        report = QrfReport(assignment=(), per_mode_qrf_db=(), total_qrf_db=0.0)
        assert report.total_qrf_db == 0.0

    def test_single_pair(self):
        ref = tone(5.0, 1.0, 64.0)
        est = add(ref, scale(tone(9.0, 1.0, 64.0), 0.1))
        report = match_components([est], [ref])
        assert report.total_qrf_db == report.per_mode_qrf_db[0] == qrf(est, ref)

    def test_two_pairs(self):
        refs = [tone(5.0, 1.0, 64.0), tone(17.0, 1.0, 64.0)]
        ests = [scale(refs[1], 0.9), scale(refs[0], 1.2)]
        report = match_components(ests, refs)
        assert report.total_qrf_db == pytest.approx(qrf(ests[0], refs[1]) + qrf(ests[1], refs[0]))
        assert report.total_qrf_db == pytest.approx(sum(report.per_mode_qrf_db))

    def test_injectivity_enforced(self):
        with pytest.raises(ContractViolation):
            QrfReport(assignment=((0, 0), (1, 0)), per_mode_qrf_db=(1.0, 2.0), total_qrf_db=3.0)
