import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdecomp import bench, metrics
from sigdecomp.core import ContractViolation, Diverged, Signal, add, l2_norm, scale, subtract
from sigdecomp.metrics import (
    ALIGNMENT_PURITY_MIN,
    QRF_SATURATION_DB,
    AlignmentScore,
    QrfReport,
    _max_weight_matching,
    alignment_score,
    dominant_frequency_hz,
    match_components,
    qrf,
)
from sigdecomp.multivariate import AlignedDecomposition, MemdConfig, memd_decompose, mvmd_decompose
from sigdecomp.synth import add_wgn, gen_mv_test, mv_component_bank


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


class TestDominantFrequency:
    def test_series_gives_a_float(self):
        f = dominant_frequency_hz(tone(5.0, 1.0, 64.0).samples, 64.0)
        assert isinstance(f, float) and f == 5.0

    def test_stack_equals_each_series(self, rng):
        stack = rng.normal(size=(2, 3, 50))
        peaks = dominant_frequency_hz(stack, 100.0)
        assert peaks.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert peaks[idx] == dominant_frequency_hz(stack[idx], 100.0)


# ---------------------------------------------------------------------------
# the whole-array scorers against their former one-pair / one-mode forms
# ---------------------------------------------------------------------------

def reference_qrf_table(est, refs):
    """The QRF table filled pair by pair, each error series built as a Signal."""

    def one(e, r):
        ref_norm = l2_norm(r)
        if ref_norm == 0.0:
            raise ContractViolation("QRF is undefined for a zero reference")
        err_norm = l2_norm(subtract(r, e))
        if err_norm == 0.0:
            return QRF_SATURATION_DB
        return float(min(20.0 * np.log10(ref_norm / err_norm), QRF_SATURATION_DB))

    return np.array([[one(e, r) for r in refs] for e in est])


def reference_match(est, refs, monkeypatch):
    """``match_components`` with its table filled by the per-pair form."""
    with monkeypatch.context() as m:
        m.setattr(metrics, "_qrf_table", reference_qrf_table)
        return match_components(est, refs)


def _reference_band_energy(samples, fs, f_hz, tol_hz):
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(samples.size, 1.0 / fs)
    return float(spectrum[(freqs >= f_hz - tol_hz) & (freqs <= f_hz + tol_hz)].sum())


def _reference_interior(samples):
    trim = samples.size // 10
    return samples[trim : samples.size - trim] if trim else samples


def reference_alignment_score(decomposition, expected, tol_hz=1.0):
    """The alignment scorer mode by mode, re-taking each spectrum per test."""
    n_channels, n_modes = decomposition.n_channels, decomposition.n_modes
    fs = decomposition.sample_rate_hz
    freqs, energies = [], []
    for k in range(n_modes):
        series = [decomposition.channel_modes[c][k].samples for c in range(n_channels)]
        freqs.append(tuple(dominant_frequency_hz(s, fs) for s in series))
        energies.append([float(np.sum(s**2)) for s in series])

    def holder_of(c, f_hz):
        shares = [
            _reference_band_energy(decomposition.channel_modes[c][k].samples, fs, f_hz, tol_hz)
            for k in range(n_modes)
        ]
        return int(np.argmax(shares)) if shares else -1

    def row_matches(mode_idx, row):
        peak_energy = max(energies[mode_idx])
        if peak_energy == 0.0:
            return False
        for c, want in enumerate(row):
            if want is None:
                if energies[mode_idx][c] >= 0.10 * peak_energy:
                    return False
            else:
                if abs(freqs[mode_idx][c] - want) > tol_hz:
                    return False
                if holder_of(c, want) != mode_idx:
                    return False
                seg = _reference_interior(decomposition.channel_modes[c][mode_idx].samples)
                total = float(np.sum(np.abs(np.fft.rfft(seg)) ** 2))
                if total == 0.0 or _reference_band_energy(seg, fs, want, tol_hz) / total < ALIGNMENT_PURITY_MIN:
                    return False
        return True

    used, row_to_mode = set(), []
    for row in expected:
        hit = next((k for k in range(n_modes) if k not in used and row_matches(k, row)), -1)
        if hit >= 0:
            used.add(hit)
        row_to_mode.append(hit)
    return AlignmentScore(tuple(freqs), all(k >= 0 for k in row_to_mode), tol_hz, tuple(row_to_mode))


def aligned(channel_modes, fs):
    n = len(channel_modes[0][0]) if channel_modes[0] else 64
    zero = Signal(np.zeros(n), fs)
    return AlignedDecomposition(
        channel_modes=tuple(tuple(Signal(m, fs) for m in modes) for modes in channel_modes),
        residuals=(zero,) * len(channel_modes),
        sample_rate_hz=fs,
    )


RECIPE_CASES = [
    (method, "s2", snr)
    for method in ("emd", "vmd", "vncmd", "sst", "ssa")
    for snr in (None, 3.0)
] + [("vmd", "s1", None), ("ssa", "s1", 12.0)]


class TestWholeArrayScoring:
    @pytest.mark.parametrize("method,signal_id,snr", RECIPE_CASES)
    def test_recipe_match_equals_per_pair(self, method, signal_id, snr, monkeypatch):
        x, refs = bench.generate_signal(signal_id)
        if snr is not None:
            x = add_wgn(x, snr, 1)
        try:
            d = bench.decompose(method, x, bench.effective_config(method, signal_id, noisy=snr is not None))
        except Diverged:
            pytest.skip("the recipe diverges on this realization")
        modes = list(d.modes)
        assert np.array_equal(metrics._qrf_table(modes, refs), reference_qrf_table(modes, refs))
        assert match_components(modes, refs) == reference_match(modes, refs, monkeypatch)

    def test_random_tables_equal_per_pair(self, rng, monkeypatch):
        for trial in range(60):
            n_e, n_r, n = (int(v) for v in rng.integers((1, 1, 2), (7, 7, 90)))
            fs = float(rng.choice([1.0, 64.0, 1000.0]))
            refs = [Signal(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), fs) for _ in range(n_r)]
            est = [Signal(rng.normal(size=n), fs) for _ in range(n_e)]
            if trial % 3 == 0:  # exact matches saturate
                est[int(rng.integers(n_e))] = refs[int(rng.integers(n_r))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = metrics._qrf_table(est, refs)
            assert table.shape == (n_e, n_r)
            assert np.array_equal(table, reference_qrf_table(est, refs))
            assert match_components(est, refs) == reference_match(est, refs, monkeypatch)

    def test_exact_match_saturates_without_warning(self):
        s = tone(5.0, 1.0, 64.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qrf(s, s) == QRF_SATURATION_DB
            assert match_components([s, scale(s, 0.5)], [s]).per_mode_qrf_db == (QRF_SATURATION_DB,)

    @pytest.mark.parametrize(
        "other",
        [tone(5.0, 2.0, 64.0), tone(5.0, 0.5, 128.0), Signal(tone(5.0, 1.0, 64.0).samples, 65.0)],
        ids=["length", "rate", "rate-off-by-one-hz"],
    )
    def test_mismatched_series_rejected(self, other):
        s = tone(5.0, 1.0, 64.0)
        for est, refs in (([other], [s]), ([s], [other]), ([s, other], [s]), ([s], [s, other])):
            with pytest.raises(ContractViolation):
                match_components(est, refs)
        with pytest.raises(ContractViolation):
            qrf(other, s)

    def test_overflowing_difference_scored_at_unit_peak(self):
        # big - (-big) is past float64's range, but not at the table's unit peak
        big = Signal(np.full(8, 1.5e308), 8.0)
        assert qrf(scale(big, -1.0), big) == 20.0 * np.log10(0.5)

    def test_power_of_two_scales_score_bit_identical(self, rng):
        refs = [Signal(rng.normal(size=64) * 10.0 ** rng.uniform(-3, 3), 8.0) for _ in range(3)]
        est = [Signal(r.samples + rng.normal(size=64) * 0.1, 8.0) for r in refs] + [refs[0]]
        series = [s.samples for s in (*est, *refs)]
        base = metrics._qrf_table(est, refs)
        checked = 0
        for k in range(-1000, 1001):
            scaled = [np.ldexp(x, k) for x in series]
            if not all(np.array_equal(np.ldexp(y, -k), x) for x, y in zip(series, scaled)):
                continue  # a scaled sample lost bits to the subnormal range
            sigs = [Signal(y, 8.0) for y in scaled]
            assert np.array_equal(metrics._qrf_table(sigs[: len(est)], sigs[len(est) :]), base), k
            checked += 1
        assert checked > 1900

    @pytest.mark.parametrize("factor", [1e-160, 1e-200, 1e160])
    def test_decimal_scales_keep_the_score(self, factor):
        ref = tone(5.0, 1.0, 64.0)
        est = add(ref, scale(tone(3.0, 1.0, 64.0), 0.01))  # a 40 dB match
        assert qrf(scale(est, factor), scale(ref, factor)) == pytest.approx(qrf(est, ref), rel=1e-12)
        assert qrf(est, ref) == pytest.approx(40.0, abs=1e-9)

    @pytest.mark.parametrize(
        "est_peak, factor, expected",
        [(1.0, 1e-160, -3200.0), (1.0, 1e-170, -3400.0), (1.0, 1e-200, -4000.0)]
        + [(1e200, 1e-120, -6400.0), (1e200, 1e-130, -6600.0), (1e200, 1e-300, -10000.0)],
    )
    def test_reference_far_below_the_estimate(self, est_peak, factor, expected):
        # at a scale common to both, the reference's squares underflow (from 1e200 over 1e-120 on, the
        # reference itself); its norm is taken at its own unit peak, the difference at the pair's, and
        # a ratio below float64's normal range in the log domain
        t = 2.0 * np.pi * np.arange(64) / 64
        est, ref = Signal(est_peak * np.cos(t), 64.0), Signal(factor * np.sin(t), 64.0)
        assert qrf(est, ref) == pytest.approx(expected, abs=1e-9)
        table = metrics._qrf_table([est, ref], [ref, est])  # each pair at its own scale
        assert table[0, 0] == pytest.approx(expected, abs=1e-9)
        assert table[0, 1] == table[1, 0] == QRF_SATURATION_DB
        assert table[1, 1] == pytest.approx(0.0, abs=1e-9)  # the reference is lost in the estimate's rounding

    def test_zero_reference_in_a_table_rejected(self):
        s = tone(5.0, 1.0, 64.0)
        with pytest.raises(ContractViolation):
            match_components([s], [s, scale(s, 0.0)])

    @pytest.mark.parametrize("snr", [3.0, 10.0, 20.0, 40.0])
    @pytest.mark.parametrize("method", ["memd", "mvmd", "vmd-channelwise"])
    def test_alignment_equals_per_mode(self, method, snr):
        mv, table = gen_mv_test()
        x = bench.noisy_mv_signal(mv, snr, 0)
        if method == "memd":
            d = memd_decompose(x, MemdConfig(M=8))
        elif method == "mvmd":
            d, _ = mvmd_decompose(x, bench.default_config("mvmd", "mv"))
        else:
            d = bench.vmd_channelwise(x, K=3)
        assert alignment_score(d, table, 1.0) == reference_alignment_score(d, table, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alignment_does_not_depend_on_scale(self):
        # every test is a ratio or an argmax, so the score must not change
        # where the modes' squares overflow (2**505) or underflow (2**-600)
        mv, table = gen_mv_test()
        d, _ = mvmd_decompose(bench.noisy_mv_signal(mv, 10.0, 0), bench.default_config("mvmd", "mv"))
        base = alignment_score(d, table, 1.0)
        assert base.passed
        for exp in (505, -600):
            modes = tuple(tuple(np.ldexp(m.samples, exp) for m in ms) for ms in d.channel_modes)
            assert alignment_score(aligned(modes, d.sample_rate_hz), table, 1.0) == base

    def test_ideal_and_swapped_equal_per_mode(self):
        _, table = gen_mv_test()
        fs = 256.0
        bank = mv_component_bank(2.0, fs)
        ch1 = (bank[2.0], 1e-9 * bank[2.0], bank[50.0])
        ideal = aligned((ch1, (bank[2.0], bank[20.0], bank[50.0])), fs)
        swapped = aligned((ch1, (bank[2.0], bank[50.0], bank[20.0])), fs)
        scores = [alignment_score(d, table, 1.0) for d in (ideal, swapped)]
        assert scores == [reference_alignment_score(d, table, 1.0) for d in (ideal, swapped)]
        assert [score.passed for score in scores] == [True, False]

    def test_alignment_of_hand_built_tables(self, rng):
        fs = 64.0
        t = np.arange(128) / fs
        low, high = np.sin(2 * np.pi * 4.0 * t), np.sin(2 * np.pi * 12.0 * t)
        cases = [
            aligned(((low, high), (low, 1e-9 * high)), fs),  # passes
            aligned(((high, low), (low, high)), fs),  # split across indices
            aligned(((low, np.zeros(128)), (low, np.zeros(128))), fs),  # an all-zero mode
            aligned(((low + rng.normal(size=128), high), (low, high)), fs),  # impure
        ]
        tables = [((4.0, 4.0), (12.0, None)), ((12.0, 12.0),), ((None, None),), ()]
        outcomes = set()
        for d in cases:
            for expected in tables:
                score = alignment_score(d, expected, 1.0)
                assert score == reference_alignment_score(d, expected, 1.0)
                outcomes.add(score.passed)
        assert outcomes == {True, False}

    def test_zero_modes_match_no_row(self):
        d = aligned(((), ()), 64.0)
        score = alignment_score(d, ((4.0, None), (None, 12.0)), 1.0)
        assert score == reference_alignment_score(d, ((4.0, None), (None, 12.0)), 1.0)
        assert score.row_to_mode == (-1, -1) and not score.passed
        assert score.dominant_freqs_hz == ()
