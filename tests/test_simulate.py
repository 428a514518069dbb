"""Experiment simulation: tomography sampling, time-tag streams, coincidences."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import simulate as sim
from steerqrng.linalg import singlet_state


def stream_config(**overrides):
    base = dict(
        visibility=1.0,
        eta_alice=0.543,
        eta_bob=1.0,
        pair_rate=50_000,
        duration_rng=1.0,
        trials_certification=10_000,
        rng_seed=5,
    )
    base.update(overrides)
    return sim.ExperimentConfig(**base)


GROUND_TRUTH_DTYPE = np.dtype(
    [
        ("time_ps", "<u8"),
        ("alice_outcome", "i1"),
        ("bob_outcome", "i1"),
        ("alice_index", "<i8"),
        ("bob_index", "<i8"),
    ]
)


def ground_truth(config):
    """Per emitted pair: the sampled outcomes and the index of each party's
    tag in its sorted stream (-1 where the photon went undetected).

    Rebuilt from the simulator's own draws and tag assembly; the protocol
    path, ``simulate_streams``, does not keep which pair a tag came from.
    """
    pair_times, alice, bob = sim._stream_draws(config)
    truth = np.zeros(len(pair_times), dtype=GROUND_TRUTH_DTYPE)
    truth["time_ps"] = np.maximum(pair_times, 0).astype(np.uint64)
    for name, party, draws in (("alice", sim.PARTY_ALICE, alice), ("bob", sim.PARTY_BOB, bob)):
        outcomes, detected = draws[0], draws[1]
        _, order = sim._party_tags(party, pair_times, *draws)
        # Pre-sort tags are the detected pairs in emission order, then dark tags.
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        index = np.full(len(pair_times), -1, dtype=np.int64)
        index[detected] = position[:np.count_nonzero(detected)]
        truth[f"{name}_outcome"] = outcomes
        truth[f"{name}_index"] = index
    return truth


def coincidences_oracle(
    alice_tags: np.ndarray, bob_tags: np.ndarray, window: float = 3e-9
) -> np.ndarray:
    """Pair up detections within the coincidence window.

    Two-pointer sweep over the time-sorted streams: each Bob tag is matched
    with the earliest not-yet-used Alice tag within ``window`` seconds; each
    tag is used at most once.  Returns a ``PAIR_DTYPE`` array ordered by Bob
    timestamp.  Raises on unsorted input.

    This is the reference definition of ``sim.coincidences``, kept as the
    test oracle for its vectorised matcher.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    for name, tags in (("alice", alice_tags), ("bob", bob_tags)):
        times = tags["time_ps"].astype(np.int64)
        if len(times) > 1 and np.any(np.diff(times) < 0):
            raise ValueError(f"{name} stream is not sorted by timestamp")

    window_ps = int(round(window * 1e12))
    # Plain-int lists: the sweep is a tight Python loop and numpy scalar
    # indexing would dominate its cost on multi-million-tag streams.
    a_times = alice_tags["time_ps"].astype(np.int64).tolist()
    b_times = bob_tags["time_ps"].astype(np.int64).tolist()

    matched_a = []
    matched_b = []
    i = 0
    n_a = len(a_times)
    for j, tb in enumerate(b_times):
        lo = tb - window_ps
        hi = tb + window_ps
        while i < n_a and a_times[i] < lo:
            i += 1
        if i < n_a and a_times[i] <= hi:
            matched_a.append(i)
            matched_b.append(j)
            i += 1

    out = np.zeros(len(matched_a), dtype=sim.PAIR_DTYPE)
    out["alice_index"] = matched_a
    out["bob_index"] = matched_b
    return out


def tag_array(party, times, channels):
    tags = np.zeros(len(times), dtype=sim.TAG_DTYPE)
    tags["party"] = party
    tags["time_ps"] = times
    tags["channel"] = channels
    return tags


class TestConfig:
    def test_round_trip(self):
        config = stream_config(dark_rate=12.5)
        again = sim.ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_keys_rejected(self):
        data = stream_config().to_dict()
        data["detector_model"] = "ideal"
        with pytest.raises(ValueError):
            sim.ExperimentConfig.from_dict(data)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            stream_config(visibility=1.0001).validate()
        with pytest.raises(ValueError):
            stream_config(eta_alice=-0.1).validate()
        with pytest.raises(ValueError):
            stream_config(pair_rate=0.0).validate()
        with pytest.raises(ValueError):
            stream_config(coincidence_window=-1e-9).validate()
        with pytest.raises(ValueError):
            stream_config(rng_setting="Q").validate()
        with pytest.raises(ValueError):
            stream_config(trials_certification=-1).validate()


class TestWernerState:
    def test_eigenvalues(self):
        rho = sim.werner_state(0.99)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(eigs, [0.0025, 0.0025, 0.0025, 0.9925], atol=1e-12)

    def test_extremes(self):
        assert np.allclose(sim.werner_state(1.0), singlet_state(), atol=1e-14)
        assert np.allclose(sim.werner_state(0.0), np.eye(4) / 4, atol=1e-14)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            sim.werner_state(1.1)


class TestTomographySampling:
    def test_deterministic(self):
        config = stream_config(trials_certification=20_000)
        a = sim.simulate_tomography(config)
        b = sim.simulate_tomography(config)
        assert np.array_equal(a.n, b.n)

    def test_seed_changes_sample(self):
        a = sim.simulate_tomography(stream_config(trials_certification=20_000))
        b = sim.simulate_tomography(
            stream_config(trials_certification=20_000, rng_seed=6)
        )
        assert not np.array_equal(a.n, b.n)

    def test_totals_match_trials(self):
        n = 30_000
        counts = sim.simulate_tomography(stream_config(trials_certification=n))
        assert counts.totals().shape == (2, 3)
        assert np.all(counts.totals() == n)
        counts.validate()

    def test_frequencies_near_born_probabilities(self):
        n = 400_000
        config = stream_config(visibility=0.9, eta_alice=0.7, trials_certification=n)
        counts = sim.simulate_tomography(config)
        model = asm.ideal_assemblage(
            sim.werner_state(config.visibility), eta=config.eta_alice
        )
        probs = asm.born_probabilities(model)
        for key, p in np.ndenumerate(probs):
            f = counts.n[key] / n
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(f - p) < 5 * sigma + 1e-9, (key, f, p)

    def test_counts_file_pinned(self, tmp_path):
        """counts.txt of one seeded small default config, byte for byte: the
        pin holds the file layout and the tomography draws fixed."""
        path = tmp_path / "counts.txt"
        asm.save_counts(sim.simulate_tomography(
            sim.ExperimentConfig(trials_certification=10_000, rng_seed=1)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ec4d4b5e8f991ff0819288eaa7567849f10db600eb2ba6e9f9a04f19cc9b7254")

    def test_fit_and_certificate_files_pinned(self, tmp_path):
        """assemblage.txt and certification.txt of the same run, byte for
        byte: the pins hold the ML fit, both SDPs and both file layouts
        fixed."""
        config = sim.ExperimentConfig(trials_certification=10_000, rng_seed=1)
        fit = asm.ml_reconstruct(sim.simulate_tomography(config))
        assemblage, certification = tmp_path / "assemblage.txt", tmp_path / "certification.txt"
        asm.save_assemblage(fit.assemblage, str(assemblage))
        cert.save_certification(cert.certify(fit.assemblage, x_star=config.rng_setting),
                                str(certification))
        assert hashlib.sha256(assemblage.read_bytes()).hexdigest() == (
            "d1b7cc5994b29908a148c31c243144af7aa34a3855d4ce4d7192d1d1f6d24205")
        assert hashlib.sha256(certification.read_bytes()).hexdigest() == (
            "17bc466ecb8c5671b432ef3a8830b5e88aa1c386c48481c5d13f8ff20ba812a9")


class TestStreams:
    def test_deterministic(self):
        config = stream_config(pair_rate=20_000)
        a = sim.simulate_streams(config)
        b = sim.simulate_streams(config)
        assert np.array_equal(a.alice_tags, b.alice_tags)
        assert np.array_equal(a.bob_tags, b.bob_tags)
        assert np.array_equal(ground_truth(config), ground_truth(config))

    def test_streams_sorted_and_typed(self):
        result = sim.simulate_streams(stream_config(pair_rate=20_000))
        for tags, party in (
            (result.alice_tags, sim.PARTY_ALICE),
            (result.bob_tags, sim.PARTY_BOB),
        ):
            assert tags.dtype == sim.TAG_DTYPE
            assert np.all(np.diff(tags["time_ps"].astype(np.int64)) >= 0)
            assert set(np.unique(tags["party"])) == {party}
            assert set(np.unique(tags["channel"])) <= {0, 1}

    def test_heralding_ratio(self):
        config = stream_config(pair_rate=200_000)
        result = sim.simulate_streams(config)
        n_pairs = len(ground_truth(config))
        ratio = len(result.alice_tags) / n_pairs
        sigma = np.sqrt(0.543 * 0.457 / n_pairs)
        assert abs(ratio - 0.543) < 5 * sigma
        # Bob's detector is lossless here
        assert len(result.bob_tags) == n_pairs

    def test_ground_truth_indices_point_at_tags(self):
        config = stream_config(pair_rate=20_000)
        result = sim.simulate_streams(config)
        truth = ground_truth(config)
        detected = truth[truth["alice_index"] >= 0]
        lost = truth[truth["alice_index"] < 0]
        assert len(detected) + len(lost) == len(truth)
        channels = result.alice_tags["channel"][detected["alice_index"]]
        assert np.array_equal(channels, detected["alice_outcome"].astype(np.uint8))

    def test_perfect_anticorrelation_in_truth(self):
        # singlet sampled in the Z/Z configuration: outcomes never agree
        truth = ground_truth(stream_config(pair_rate=20_000))
        assert np.all(truth["alice_outcome"] != truth["bob_outcome"])

    @pytest.mark.parametrize("setting, basis", [("Z", "Z"), ("X", "Z")])
    def test_pairs_sample_the_source_assemblage(self, setting, basis):
        """Per emitted pair, (a, beta) at the stream's setting and basis, null
        included, follows the Born probabilities of the same assemblage the
        tomography samples; Alice is detected exactly when a is not null."""
        config = stream_config(visibility=0.9, eta_alice=0.7, pair_rate=200_000,
                               rng_setting=setting, bob_rng_basis=basis)
        truth = ground_truth(config)
        n = len(truth)
        model = asm.ideal_assemblage(
            sim.werner_state(config.visibility), eta=config.eta_alice
        )
        probs = asm.born_probabilities(model)
        for a_index, a in enumerate(asm.OUTCOMES):
            for beta in (0, 1):
                p = probs[asm.SETTINGS.index(setting), asm.BOB_BASES.index(basis),
                          a_index, beta]
                f = np.count_nonzero((truth["alice_outcome"] == a_index)
                                     & (truth["bob_outcome"] == beta)) / n
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(f - p) < 5 * sigma + 1e-9, (a, beta, f, p)
        assert np.array_equal(truth["alice_index"] >= 0, truth["alice_outcome"] < 2)

    def test_dark_counts_extend_streams(self):
        quiet = sim.simulate_streams(stream_config(pair_rate=20_000))
        noisy = sim.simulate_streams(stream_config(pair_rate=20_000, dark_rate=5_000))
        assert len(noisy.bob_tags) > len(quiet.bob_tags)
        assert len(noisy.alice_tags) > len(quiet.alice_tags)


class TestCoincidences:
    def test_matches_ground_truth(self):
        config = stream_config(pair_rate=100_000)
        result = sim.simulate_streams(config)
        pairs = sim.coincidences(
            result.alice_tags, result.bob_tags, config.coincidence_window
        )
        truth = ground_truth(config)
        both = truth[(truth["alice_index"] >= 0) & (truth["bob_index"] >= 0)]
        true_set = set(zip(both["alice_index"].tolist(), both["bob_index"].tolist()))
        found = set(zip(pairs["alice_index"].tolist(), pairs["bob_index"].tolist()))
        agreement = len(found & true_set) / len(true_set)
        assert agreement >= 0.999

    def test_equals_oracle_on_random_dense_streams(self):
        """Small, dense streams: many equal timestamps, Alice tags exactly at
        +-window of a Bob tag, Bob tags exactly two windows apart, Bob tags
        earlier than the window, and long runs of overlapping Bob windows."""
        rng = np.random.default_rng(2026)
        for trial in range(300):
            window_ps = int(rng.integers(1, 40))
            span = int(rng.integers(1, 20 * window_ps + 2))
            n_a, n_b = (int(n) for n in rng.integers(0, 60, size=2))
            a_times = rng.integers(0, span, size=n_a)
            b_times = rng.integers(0, span, size=n_b)
            if trial % 3 == 0:
                b_times = np.concatenate([b_times, b_times[:n_b // 2] + 2 * window_ps])
            b_times = np.sort(b_times)
            if n_b and trial % 2:
                edges = rng.choice(b_times, size=n_b) + rng.choice([-window_ps, window_ps], size=n_b)
                a_times = np.concatenate([a_times, edges[edges >= 0]])
            a_times = np.sort(a_times)
            alice = tag_array(sim.PARTY_ALICE, a_times, rng.integers(0, 2, size=len(a_times)))
            bob = tag_array(sim.PARTY_BOB, b_times, rng.integers(0, 2, size=len(b_times)))
            window = window_ps * 1e-12
            got = sim.coincidences(alice, bob, window)
            want = coincidences_oracle(alice, bob, window)
            assert got.dtype == sim.PAIR_DTYPE
            assert np.array_equal(got, want), (trial, window_ps, a_times, b_times)

    def test_equals_oracle_on_empty_streams(self):
        alice = tag_array(sim.PARTY_ALICE, [0, 4, 4, 9], [0, 1, 1, 0])
        bob = tag_array(sim.PARTY_BOB, [2, 4, 12], [1, 0, 0])
        no_alice = tag_array(sim.PARTY_ALICE, [], [])
        no_bob = tag_array(sim.PARTY_BOB, [], [])
        for a, b in ((no_alice, bob), (alice, no_bob), (no_alice, no_bob)):
            got = sim.coincidences(a, b, 3e-12)
            assert got.dtype == sim.PAIR_DTYPE and len(got) == 0
            assert np.array_equal(got, coincidences_oracle(a, b, 3e-12))

    def test_equals_oracle_on_simulated_stream(self):
        config = stream_config(pair_rate=200_000, eta_alice=0.8, dark_rate=10_000)
        result = sim.simulate_streams(config)
        window_ps = round(config.coincidence_window * 1e12)
        bob_gaps = np.diff(result.bob_tags["time_ps"].astype(np.int64))
        assert np.count_nonzero(bob_gaps <= 2 * window_ps) > 100  # overlapping windows
        got = sim.coincidences(result.alice_tags, result.bob_tags, config.coincidence_window)
        want = coincidences_oracle(result.alice_tags, result.bob_tags, config.coincidence_window)
        assert len(got) > 100_000
        assert np.array_equal(got, want)

    def test_time_shift_invariance(self):
        config = stream_config(pair_rate=20_000)
        result = sim.simulate_streams(config)
        pairs = sim.coincidences(
            result.alice_tags, result.bob_tags, config.coincidence_window
        )
        shift = np.uint64(10_000_000)
        alice = result.alice_tags.copy()
        bob = result.bob_tags.copy()
        alice["time_ps"] += shift
        bob["time_ps"] += shift
        shifted = sim.coincidences(alice, bob, config.coincidence_window)
        assert np.array_equal(pairs["alice_index"], shifted["alice_index"])
        assert np.array_equal(pairs["bob_index"], shifted["bob_index"])

    def test_zero_jitter_pairs_everything(self):
        config = stream_config(pair_rate=20_000, timing_jitter=0.0)
        result = sim.simulate_streams(config)
        pairs = sim.coincidences(
            result.alice_tags, result.bob_tags, config.coincidence_window
        )
        truth = ground_truth(config)
        n_mutual = int(np.count_nonzero(
            (truth["alice_index"] >= 0) & (truth["bob_index"] >= 0)
        ))
        assert len(pairs) == n_mutual

    def test_rejects_unsorted_input(self):
        result = sim.simulate_streams(stream_config(pair_rate=5_000))
        scrambled = result.alice_tags[::-1].copy()
        with pytest.raises(ValueError):
            sim.coincidences(scrambled, result.bob_tags)

    def test_rejects_bad_window(self):
        result = sim.simulate_streams(stream_config(pair_rate=5_000))
        with pytest.raises(ValueError):
            sim.coincidences(result.alice_tags, result.bob_tags, window=0.0)

    def test_front_end_heap_peak_per_tag(self):
        """Building both streams and matching them peaks below 36 traced
        bytes per tag.  At the peak, while Bob's tags are assembled, only
        the pair times, Bob's draws, Alice's tags and Bob's times, sort
        order and records are live (about 30 B/tag)."""
        config = stream_config(pair_rate=200_000, eta_alice=0.8, dark_rate=10_000)
        tracemalloc.start()
        try:
            result = sim.simulate_streams(config)
            sim.coincidences(result.alice_tags, result.bob_tags, config.coincidence_window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_tag = peak / (len(result.alice_tags) + len(result.bob_tags))
        assert per_tag < 36, f"{per_tag:.1f} traced bytes per tag"


class TestRawBits:
    def test_bits_are_alice_channels_in_order(self):
        config = stream_config(pair_rate=50_000)
        result = sim.simulate_streams(config)
        pairs = sim.coincidences(
            result.alice_tags, result.bob_tags, config.coincidence_window
        )
        bits = sim.raw_bits(result.alice_tags, pairs)
        assert len(bits) == len(pairs)
        assert np.array_equal(bits.bits, result.alice_tags["channel"][pairs["alice_index"]])
        want = coincidences_oracle(result.alice_tags, result.bob_tags, config.coincidence_window)
        assert np.array_equal(bits.bits, result.alice_tags["channel"][want["alice_index"]])

    def test_bit_bias_small(self):
        config = stream_config(pair_rate=200_000)
        result = sim.simulate_streams(config)
        pairs = sim.coincidences(
            result.alice_tags, result.bob_tags, config.coincidence_window
        )
        bits = sim.raw_bits(result.alice_tags, pairs).bits
        n = bits.size
        z = (2.0 * float(bits.sum()) - n) / np.sqrt(n)
        assert abs(z) < 5.0


class TestTagFiles:
    def test_round_trip_with_header(self, tmp_path):
        result = sim.simulate_streams(stream_config(pair_rate=5_000))
        path = tmp_path / "tags.bin"
        sim.save_timetags(result.alice_tags, path, {"party": "alice", "run": 3})
        loaded, header = sim.load_timetags(path)
        assert np.array_equal(loaded, result.alice_tags)
        assert header["party"] == "alice"
        assert header["run"] == "3"

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.bin"
        sim.save_timetags(np.zeros(0, dtype=sim.TAG_DTYPE), path)
        loaded, _ = sim.load_timetags(path)
        assert len(loaded) == 0

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"format other-v9\nend-header\n")
        with pytest.raises(ValueError):
            sim.load_timetags(path)

    def test_truncated_payload_rejected(self, tmp_path):
        result = sim.simulate_streams(stream_config(pair_rate=5_000))
        path = tmp_path / "tags.bin"
        sim.save_timetags(result.alice_tags, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError):
            sim.load_timetags(path)

    def test_header_key_whitespace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sim.save_timetags(
                np.zeros(0, dtype=sim.TAG_DTYPE),
                tmp_path / "x.bin",
                {"bad key": 1},
            )
