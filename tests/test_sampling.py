import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import partdist.sampling
from partdist.delays import ArrivalSpec, delay_matrix, discretize, snapped_delay_matrix, snapped_times
from partdist.errors import DomainError, NumericalError, SizeLimitError
from partdist.interferometer import (
    enumerate_outputs,
    haar_unitary,
    monomial_vector,
    output_text,
    submatrix,
)
from partdist.matfun import determinant, permanent
from partdist.rates import (
    EngineRates,
    _fft_rounding,
    _parseval_tolerance,
    attach_vector,
    build_transform,
    fourier_blocks,
    rate_blocked,
    rate_direct,
    rate_direct_streaming,
    rate_matrix,
    rate_truncated,
)
from partdist.sampling import (
    build_distribution,
    entropy_bits,
    reference_distinguishable,
    reference_indistinguishable,
    sample,
    to_jsonl,
    total_variation,
)

SPEC = ArrivalSpec((0.1, 0.42, 0.77), 1.5, 1.0, 8)
EQUAL = ArrivalSpec((0.3, 0.3, 0.3), 1.5, 1.0, 8)
FAR = ArrivalSpec((0.01, 0.45, 0.93), 500.0, 1.0, 8)


def at_bin_centres(spec):
    """The spec with each time moved to its bin centre, as a binned config
    places its particles."""
    return ArrivalSpec(snapped_times(discretize(spec)[0], spec), spec.delta_omega, spec.window,
                       spec.bins)


@pytest.fixture(scope="module")
def itf():
    return haar_unitary(6, seed=3)


def test_distribution_normalization_and_coverage(itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    assert dist.strings.shape == (math.comb(6, 3), 3)
    assert len(set(output_text(dist.strings, 6))) == len(dist.strings)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.probabilities.min() >= 0
    assert dist.total_rate == pytest.approx(dist.rates.sum())


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_engines_build_identical_distributions(itf, species):
    direct = build_distribution(itf, SPEC, species, "direct")
    blocked = build_distribution(itf, SPEC, species, "blocked")
    assert np.abs(direct.probabilities - blocked.probabilities).max() < 1e-11
    centred = at_bin_centres(SPEC)
    snapped_direct = build_distribution(itf, centred, species, "direct")
    truncated = build_distribution(itf, centred, species, "truncated")
    assert np.abs(snapped_direct.probabilities - truncated.probabilities).max() < 1e-11


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_truncated_on_continuous_times_equals_blocked(itf, species):
    # distinct times: the Gamas partition is (1, 1, 1) and every block is
    # kept, so truncated runs blocked's arithmetic bit for bit
    blocked = build_distribution(itf, SPEC, species, "blocked")
    truncated = build_distribution(itf, SPEC, species, "truncated")
    assert truncated.rates.tobytes() == blocked.rates.tobytes()
    assert truncated.probabilities.tobytes() == blocked.probabilities.tobytes()
    assert truncated.result.parseval_residual == blocked.result.parseval_residual


def test_point_mass_when_channels_equal_particles():
    itf = haar_unitary(3, seed=1)
    dist = build_distribution(itf, SPEC, "boson", "direct")
    assert dist.strings.tolist() == [[1, 2, 3]]
    assert output_text(dist.strings, 3) == ["111"] and dist.probabilities.tolist() == [1.0]


def test_sampling_is_deterministic_and_seed_sensitive(itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    a = sample(dist, 100, seed=5)
    b = sample(dist, 100, seed=5)
    c = sample(dist, 100, seed=6)
    assert a.shape == (100,) and 0 <= a.min() and a.max() < len(dist.strings)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(sample(dist, 100, seed=np.int64(5)), a)


def test_sampling_refuses_a_seed_that_is_not_a_non_negative_integer(itf, monkeypatch):
    # without the refusal None drew from OS entropy, True was read as
    # seed 1, and -1 and 2.5 raised NumPy's ValueError and TypeError
    dist = build_distribution(itf, SPEC, "boson", "direct")

    def no_draw(*args):
        pytest.fail("a generator was made before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for seed in (None, True, False, 2.5, 5.0, -1, "5"):
        with pytest.raises(DomainError, match="seed"):
            sample(dist, 8, seed)


def test_sampling_goodness_of_fit(itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    draws = sample(dist, 10_000, seed=0)
    counts = np.bincount(draws, minlength=len(dist.strings))
    # pool tiny-expectation cells to keep the chi-square approximation honest
    expected = dist.probabilities * len(draws)
    keep = expected >= 5
    pooled_counts, pooled_expected = counts[keep], expected[keep]
    if not keep.all():
        pooled_counts = np.append(pooled_counts, counts[~keep].sum())
        pooled_expected = np.append(pooled_expected, expected[~keep].sum())
    result = stats.chisquare(pooled_counts, pooled_expected)
    assert result.pvalue > 0.001


def test_two_seeds_same_marginals(itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    emp = []
    for seed in (1, 2):
        draws = sample(dist, 5000, seed=seed)
        emp.append(np.bincount(draws, minlength=len(dist.strings)) / 5000)
    assert np.abs(emp[0] - emp[1]).max() < 0.05


def test_fermion_equal_times_matches_determinant_distribution(itf):
    dist = build_distribution(itf, EQUAL, "fermion", "direct")
    ref = reference_indistinguishable(itf, 3, "fermion")
    assert np.abs(dist.probabilities - ref.probabilities).max() < 1e-9


def test_single_particle_distribution_is_column_weights():
    itf = haar_unitary(4, seed=7)
    spec = ArrivalSpec((0.2,), 1.0, 1.0, 4)
    dist = build_distribution(itf, spec, "fermion", "direct")
    weights = np.abs(itf.matrix[:, 0]) ** 2
    by_detector = dict(zip(dist.strings[:, 0].tolist(), dist.probabilities.tolist()))
    probs = [by_detector[k] for k in range(1, 5)]
    assert np.allclose(probs, weights / weights.sum(), atol=1e-12)


def test_hom_fermions_antibunch_completely():
    # two fermions in a two-channel interferometer: the only collision-free
    # string is "11" and it carries all the probability
    itf = haar_unitary(2, seed=2)
    spec = ArrivalSpec((0.5, 0.5), 1.0, 1.0, 4)
    dist = build_distribution(itf, spec, "fermion", "direct")
    assert dist.strings.tolist() == [[1, 2]]
    assert dist.probabilities.tolist() == [1.0]


def test_boson_equal_times_matches_permanent_reference(itf):
    dist = build_distribution(itf, EQUAL, "boson", "direct")
    ref = reference_indistinguishable(itf, 3, "boson")
    assert total_variation(dist, ref) < 1e-10


def test_species_agree_at_full_distinguishability(itf):
    boson = build_distribution(itf, FAR, "boson", "direct")
    fermion = build_distribution(itf, FAR, "fermion", "direct")
    ref = reference_distinguishable(itf, 3)
    assert np.abs(boson.probabilities - fermion.probabilities).max() < 1e-9
    assert total_variation(boson, ref) < 1e-9


def test_probability_continuity_in_arrival_times(itf):
    base = build_distribution(itf, SPEC, "boson", "direct").probabilities
    shifts = {}
    for eps in (1e-3, 1e-4):
        taus = (SPEC.taus[0] + eps,) + SPEC.taus[1:]
        perturbed = build_distribution(
            itf, ArrivalSpec(taus, SPEC.delta_omega, SPEC.window, SPEC.bins),
            "boson", "direct",
        ).probabilities
        shifts[eps] = np.abs(perturbed - base).max()
    ratio = shifts[1e-3] / shifts[1e-4]
    assert 10 / 3 < ratio < 30  # O(eps) scaling within a factor 3 of linear


def test_size_guards():
    with pytest.raises(SizeLimitError):
        build_distribution(haar_unitary(50, seed=0),
                           ArrivalSpec((0.1,) * 5, 1.0, 1.0, 4), "boson")
    spec8 = ArrivalSpec((0.1,) * 8, 1.0, 1.0, 4)
    with pytest.raises(SizeLimitError):
        build_distribution(haar_unitary(9, seed=0), spec8, "boson")


def test_exports(tmp_path, itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    jl = tmp_path / "d.jsonl"
    to_jsonl(dist, jl)
    lines = [json.loads(line) for line in jl.read_text().splitlines()]
    assert len(lines) == 20
    assert set(lines[0]) == {"s", "rate", "prob"}
    assert sum(line["prob"] for line in lines) == pytest.approx(1.0, abs=1e-9)
    # JSON writes floats by repr, which round-trips them exactly
    assert lines[0]["prob"] == dist.probabilities[0]


def test_entropy_and_tv_basics(itf):
    dist = build_distribution(itf, SPEC, "boson", "direct")
    assert 0 < entropy_bits(dist) <= math.log2(len(dist.strings)) + 1e-12
    assert total_variation(dist, dist) == 0
    other = reference_distinguishable(itf, 3)
    tv = total_variation(dist, other)
    assert 0 <= tv <= 1
    small = reference_distinguishable(haar_unitary(5, seed=1), 3)
    with pytest.raises(DomainError):
        total_variation(dist, small)


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_batched_block_engines_match_per_string_projection(species, monkeypatch):
    # n = 6 projects floor(2^16 / 720) = 91 strings per batch, and m = 10 has
    # 210 strings: two full batches and one of 28
    spec = ArrivalSpec((0.05, 0.1, 0.33, 0.5, 0.52, 0.9), 3.0, 1.0, 4)
    itf10 = haar_unitary(10, seed=17)
    widths = []
    batched = partdist.rates.attach_vector

    def attach_vector(vs, *args):
        widths.append(len(vs))
        return batched(vs, *args)

    monkeypatch.setattr(partdist.rates, "attach_vector", attach_vector)
    T = build_transform(6)
    idx, part = discretize(spec)
    blocks = fourier_blocks(snapped_delay_matrix(idx, spec), species, T)
    N = math.factorial(6)
    # both routes round T v within δ‖v‖ (rates.attach_vector), and the rate
    # moves by at most ‖K‖ (2 + 2δ) 2δ ‖v‖² with ‖K‖ <= ‖R‖ <= N
    delta = _fft_rounding(6)
    for engine in ("blocked", "truncated"):
        widths.clear()
        dist = build_distribution(itf10, at_bin_centres(spec), species, engine)
        assert widths == [91, 91, 28]
        assert len(dist.strings) == 210
        norms = []
        for s, got in zip(dist.strings, dist.rates):
            v = monomial_vector(submatrix(itf10, s))
            decomp = attach_vector(v, blocks, T, species)
            want = rate_blocked(decomp) if engine == "blocked" else rate_truncated(decomp, part)
            norm2 = float(np.vdot(v, v).real)
            norms.append(norm2)
            assert abs(got - want) <= 4 * N * delta * (1 + delta) * norm2, (s, got, want)
        assert 0.0 <= dist.result.parseval_residual <= _parseval_tolerance(6) * max(norms)


def _record_streaming(monkeypatch):
    """Wrap the streaming engine as the rate layer looks it up, and
    return the list its calls and results are appended to."""
    calls = []

    def streaming(As, r, species):
        result = rate_direct_streaming(As, r, species)
        calls.append((len(As), result))
        return result

    monkeypatch.setattr(partdist.rates, "rate_direct_streaming", streaming)
    return calls


def test_streaming_distribution_n7_is_light_and_matches_dense(monkeypatch):
    # `distribution` with `"chunk": 512` at m = 10, n = 7: one streaming call
    # for all 120 strings, no group enumerated, a few MiB at peak, against the
    # dense engine's 5040 x 5040 rate matrix (about 815 MB of peak RSS)
    spec = ArrivalSpec((0.1, 0.5, 0.9, 1.3, 1.7, 2.2, 3.0), 1.0, 4.0, 4)
    itf10 = haar_unitary(10, seed=3)
    calls = _record_streaming(monkeypatch)
    tracemalloc.start()
    try:
        dist = build_distribution(itf10, spec, "boson", "streaming")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert [k for k, _ in calls] == [120]
    bounds = calls[0][1].bounds
    assert dist.result.cancellation == calls[0][1].cancellation >= 1.0

    # the dense engine is v^dag R v with its R; every string's form is taken
    # here with real products, and rate_direct itself on two strings
    R = rate_matrix(delay_matrix(spec), "boson")
    V = monomial_vector(submatrix(itf10, dist.strings))
    RV = R.matrix @ V.real.T + 1j * (R.matrix @ V.imag.T)
    dense = np.einsum("ij,ji->i", V.conj(), RV).real
    # |R_ij| <= 1: the form rounds by at most 2 gamma_2N ||v||_1^2, N = 7!
    N = math.factorial(7)
    u = np.finfo(float).eps / 2
    dense_bounds = 2 * (2 * N * u / (1 - 2 * N * u)) * np.abs(V).sum(axis=1) ** 2
    assert np.all(np.abs(dist.rates - dense) <= bounds + dense_bounds)
    for i in (0, 77):
        assert abs(rate_direct(V[i], R) - dense[i]) <= 2 * dense_bounds[i]


def test_streaming_distribution_runs_past_n7(monkeypatch):
    # Generalized Fermion Sampling at n = 8, m = 10: the engine's own guard
    # replaces the n <= 7 cap of the other engines
    spec = ArrivalSpec(tuple(0.4 * k for k in range(8)), 1.0, 4.0, 4)
    itf10 = haar_unitary(10, seed=8)
    with pytest.raises(SizeLimitError):
        build_distribution(itf10, spec, "fermion", "direct")
    calls = _record_streaming(monkeypatch)
    dist = build_distribution(itf10, spec, "fermion", "streaming")
    assert len(dist.strings) == math.comb(10, 8) == 45
    assert [k for k, _ in calls] == [45]
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    # a batch element gets the bits of its own single call
    r = delay_matrix(spec)
    for s, got in list(zip(dist.strings, dist.rates))[::11]:
        assert got == float(rate_direct_streaming(submatrix(itf10, s), r, "fermion").rates)


@pytest.mark.parametrize("m, n", [(6, 3), (14, 12)])
def test_batched_references_equal_per_string_values(m, n, monkeypatch):
    # floor(2^17 / 2^n) strings per call: all 20 strings at n = 3, and the
    # 91 strings at n = 12 in batches of 32, 32 and 27
    itf_m = haar_unitary(m, seed=m)
    calls = []

    def counted(fn):
        def wrapper(As):
            calls.append(len(As))
            return fn(As)
        return wrapper

    monkeypatch.setattr(partdist.sampling, "permanent", counted(permanent))
    monkeypatch.setattr(partdist.sampling, "determinant", counted(determinant))
    width = max(1, 2**17 >> n)
    strings = enumerate_outputs(m, n)
    widths = [min(width, len(strings) - start) for start in range(0, len(strings), width)]
    As = [submatrix(itf_m, s) for s in strings]
    # Glynn and LAPACK treat each matrix of a stack on its own: the same bits
    for species, fn in (("boson", permanent), ("fermion", determinant)):
        calls.clear()
        ref = reference_indistinguishable(itf_m, n, species)
        assert calls == widths
        assert ref.strings is strings
        assert ref.rates.tolist() == [np.abs(fn(A)) ** 2 for A in As]
    calls.clear()
    ref = reference_distinguishable(itf_m, n)
    assert calls == widths
    assert ref.rates.tolist() == [permanent(np.abs(A) ** 2).real for A in As]


def test_distribution_holds_read_only_arrays(itf):
    dist = build_distribution(itf, SPEC, "boson", "blocked")
    for values in (dist.rates, dist.probabilities):
        assert values.dtype == float and values.shape == (len(dist.strings),)
        assert not values.flags.writeable
    assert dist.probabilities.tolist() == (dist.rates / dist.total_rate).tolist()
    assert not dist.strings.flags.writeable
    for name in ("rates", "probabilities", "total_rate", "result", "n"):
        with pytest.raises(AttributeError):
            setattr(dist, name, None)
    with pytest.raises(DomainError):
        partdist.sampling.OutputDistribution(
            6, "boson", "direct", dist.strings, EngineRates(dist.rates[:-1])
        )


@pytest.mark.parametrize("engine", ["direct", "streaming", "blocked", "truncated"])
def test_distribution_holds_the_engine_result_it_came_from(itf, engine, monkeypatch):
    # no copy of the rates or of their health figures: the distribution
    # keeps the very EngineRates of its one engine_rates call
    results = []
    engine_rates = partdist.sampling.engine_rates

    def spy(*args):
        results.append(engine_rates(*args))
        return results[-1]

    monkeypatch.setattr(partdist.sampling, "engine_rates", spy)
    dist = build_distribution(itf, at_bin_centres(SPEC), "fermion", engine)
    (result,) = results
    assert dist.result is result
    assert dist.n == 3 and dist.rates.tolist() == result.rates.tolist()
    assert dist.total_rate == float(result.rates.sum())
    # the dense stack route reports its bounds as the streaming route does
    assert (result.bounds is None) == (engine in ("blocked", "truncated"))


def test_distribution_refuses_rates_it_cannot_normalize():
    strings = enumerate_outputs(6, 3)
    K = len(strings)
    OutputDistribution = partdist.sampling.OutputDistribution
    with pytest.raises(NumericalError, match="cannot normalize"):
        OutputDistribution(6, "boson", "direct", strings, EngineRates(np.zeros(K)))
    with pytest.raises(NumericalError, match="cannot normalize"):
        OutputDistribution(6, "boson", "direct", strings, EngineRates(-np.ones(K)))
    # an infinite rate would make the probabilities [nan, 0, ...], so that
    # every draw returned string 0
    with pytest.raises(NumericalError, match="cannot normalize"):
        OutputDistribution(6, "boson", "direct", strings,
                           EngineRates(np.r_[np.inf, np.ones(K - 1)]))
    with pytest.raises(DomainError, match="non-negative"):
        OutputDistribution(6, "boson", "direct", strings,
                           EngineRates(np.r_[-1e-3, np.ones(K - 1)]))
