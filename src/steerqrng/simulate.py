"""Synthetic stand-in for the photonic steering experiment.

The source is one assemblage, ``ideal_assemblage(werner_state(V), eta_alice)``:
both the tomography counts of the certification stage and the time-tagged
detection streams of the randomness-generation stage sample its Born
probabilities p(a, beta | x, b).  Loss on the untrusted side is the
assemblage's null member, an outcome like the other two; a null produces
no Alice time tag, which is how null outcomes enter the raw data.

Timestamps are integer picoseconds throughout so that coincidence windowing
is exact.  All sampling is driven by ``numpy.random.Generator`` seeded from
``ExperimentConfig.rng_seed``; fixed seed means byte-identical outputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict, fields

import numpy as np

from .assemblage import (
    BOB_BASES,
    CELLS,
    SETTINGS,
    TomographyCounts,
    born_probabilities,
    ideal_assemblage,
)
from .extractor import BitString
from .linalg import assert_density_matrix, singlet_state

PARTY_ALICE = 0
PARTY_BOB = 1

#: Record layout shared by the in-memory streams and the on-disk format:
#: one byte party, one byte channel, eight bytes little-endian picoseconds.
TAG_DTYPE = np.dtype([("party", "u1"), ("channel", "u1"), ("time_ps", "<u8")])

#: One matched pair: the indices of its Alice and Bob tags in their streams.
PAIR_DTYPE = np.dtype([("alice_index", "<i8"), ("bob_index", "<i8")])

# Independent RNG lanes so that adding tomography trials does not disturb
# the stream sample and vice versa.
_TOMOGRAPHY_LANE = 1
_STREAM_LANE = 2

_PS_PER_SECOND = 1e12

# the values a config field of each annotated type accepts; bool never counts
# as a number
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str,
                "str | None": (str, type(None))}


def check_fields(settings, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` for a dataclass field whose value has the wrong type
    or is a non-finite float."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise error(f"{f.name} must be of type {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")


@dataclass
class ExperimentConfig:
    """Knobs of the simulated run.

    ``visibility`` is the Werner mixing weight and ``eta_alice`` the heralding
    efficiency of the untrusted side: the source is the assemblage
    ``ideal_assemblage(werner_state(visibility), eta_alice)``, whose null
    member carries the ``1 - eta_alice`` of Alice's loss; loss is an outcome
    of the source, not a separate per-photon draw.  ``eta_bob`` is the
    trusted side's detector efficiency.  ``trials_certification`` is the
    number of tomography trials recorded per (setting, basis) configuration.  ``duration_rng`` is the
    wall-clock length of the randomness-generation stream in seconds and
    ``pair_rate`` the expected pair-emission rate in pairs per second.
    """

    visibility: float = 0.99
    eta_alice: float = 0.8
    eta_bob: float = 1.0
    pair_rate: float = 1e5
    trials_certification: int = 100_000
    duration_rng: float = 1.0
    coincidence_window: float = 3e-9
    rng_seed: int = 0
    # Extras beyond the basic experiment: the fixed measurement choices of
    # the randomness-generation stage, Gaussian timing jitter, and an
    # uncorrelated background ("dark") tag rate per party.
    rng_setting: str = "Z"
    bob_rng_basis: str = "Z"
    timing_jitter: float = 2e-10
    dark_rate: float = 0.0

    def validate(self):
        check_fields(self)
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        if not 0.0 <= self.eta_alice <= 1.0:
            raise ValueError(f"eta_alice must lie in [0, 1], got {self.eta_alice}")
        if not 0.0 < self.eta_bob <= 1.0:
            raise ValueError(f"eta_bob must lie in (0, 1], got {self.eta_bob}")
        if self.pair_rate <= 0:
            raise ValueError("pair_rate must be positive")
        if self.trials_certification < 1:
            raise ValueError("trials_certification must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.duration_rng <= 0:
            raise ValueError("duration_rng must be positive")
        if self.coincidence_window <= 0:
            raise ValueError("coincidence_window must be positive")
        if self.rng_setting not in SETTINGS:
            raise ValueError(f"rng_setting must be one of {SETTINGS}")
        if self.bob_rng_basis not in BOB_BASES:
            raise ValueError(f"bob_rng_basis must be one of {BOB_BASES}")
        if self.timing_jitter < 0:
            raise ValueError("timing_jitter must be non-negative")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be non-negative")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        return cls(**data).validate()


@dataclass
class StreamResult:
    """Output of ``simulate_streams``.

    ``alice_tags`` and ``bob_tags`` are ``TAG_DTYPE`` arrays sorted by
    timestamp.  Which pair a tag came from is not recorded: the protocol
    never reads it, and tests rebuild it from ``_stream_draws`` and
    ``_party_tags``.
    """

    alice_tags: np.ndarray
    bob_tags: np.ndarray


def werner_state(visibility: float) -> np.ndarray:
    """Werner-family state: ``V |psi-><psi-| + (1-V)/4 * identity``."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    rho = visibility * singlet_state() + (1.0 - visibility) * np.eye(4) / 4.0
    assert_density_matrix(rho, name="werner state")
    return rho


def _source_probabilities(config: ExperimentConfig) -> np.ndarray:
    """p(a, beta | x, b) of the source as a (settings, bases, 6) array.

    The source is the assemblage ``ideal_assemblage(werner_state(V), eta)``;
    the last axis holds the cells a in (0, 1, null) times beta in (0, 1), in
    that order, and each (x, b) row sums to one.
    """
    assem = ideal_assemblage(werner_state(config.visibility), eta=config.eta_alice)
    p = np.clip(born_probabilities(assem).reshape(len(SETTINGS), len(BOB_BASES), -1), 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def simulate_tomography(config: ExperimentConfig) -> TomographyCounts:
    """Sample certification-stage counts as one ``CELLS`` table.

    For each of the six (setting, Bob basis) configurations an independent
    multinomial of ``trials_certification`` trials is drawn from the source's
    Born probabilities, all in one call.  Bob's detector efficiency drops out
    here because trials are conditioned on a Bob detection.
    """
    config.validate()
    rng = np.random.default_rng([config.rng_seed, _TOMOGRAPHY_LANE])
    draws = rng.multinomial(config.trials_certification, _source_probabilities(config))
    return TomographyCounts(draws.reshape(CELLS))


def _party_tags(party: int, pair_times: np.ndarray, channels: np.ndarray, detected: np.ndarray,
                jitter: np.ndarray, dark_times: np.ndarray, dark_channels: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble one party's tag array sorted by time.

    Returns the sorted ``TAG_DTYPE`` array and the sort permutation of the
    pre-sort tags, which are the detected pairs in emission order followed by
    the dark tags.
    """
    times = pair_times[detected]
    times += jitter[detected]
    np.maximum(times, 0, out=times)
    all_times = np.concatenate([times, dark_times])
    del times
    all_chans = np.concatenate([channels[detected], dark_channels]).astype(np.uint8)

    order = np.argsort(all_times, kind="stable")
    all_times.sort(kind="stable")  # equals all_times[order]; fast on nearly sorted times
    tags = np.empty(len(order), dtype=TAG_DTYPE)
    tags["party"] = party
    tags["channel"] = all_chans[order]
    tags["time_ps"] = all_times.view(np.uint64)
    return tags, order


def _stream_draws(config: ExperimentConfig):
    """Every random draw of the randomness stage, in its fixed order.

    Returns the pair emission times and, per party, the ``_party_tags``
    arguments that follow them: outcomes, detection mask, jitter, dark tag
    times and dark tag channels.  Alice's outcome is 0, 1 or 2 (null), and
    she detects exactly the pairs whose outcome is not null.
    """
    config.validate()
    rng = np.random.default_rng([config.rng_seed, _STREAM_LANE])

    duration_ps = config.duration_rng * _PS_PER_SECOND
    n_pairs = int(rng.poisson(config.pair_rate * config.duration_rng))
    pair_times = np.sort(rng.random(n_pairs)) * duration_ps
    pair_times = pair_times.astype(np.int64)

    # one 6-cell draw per pair from the source's row at the RNG-stage
    # settings: Alice's outcome 2 is the null, which leaves no tag
    p_row = _source_probabilities(config)[SETTINGS.index(config.rng_setting),
                                          BOB_BASES.index(config.bob_rng_basis)]
    cell = rng.choice(len(p_row), size=n_pairs, p=p_row).astype(np.int8)
    alice_out = cell >> 1
    bob_out = cell & 1

    alice_det = alice_out < 2
    bob_det = rng.random(n_pairs) < config.eta_bob

    jitter_ps = config.timing_jitter * _PS_PER_SECOND
    alice_jitter = np.round(rng.normal(0.0, jitter_ps, size=n_pairs)).astype(np.int64)
    bob_jitter = np.round(rng.normal(0.0, jitter_ps, size=n_pairs)).astype(np.int64)

    def dark_draw():
        n_dark = int(rng.poisson(config.dark_rate * config.duration_rng))
        times = (rng.random(n_dark) * duration_ps).astype(np.int64)
        chans = rng.integers(0, 2, size=n_dark)
        return times, chans

    alice = (alice_out, alice_det, alice_jitter, *dark_draw())
    bob = (bob_out, bob_det, bob_jitter, *dark_draw())
    return pair_times, alice, bob


def simulate_streams(config: ExperimentConfig) -> StreamResult:
    """Generate the randomness-stage time-tag streams.

    Pair emissions form a Poisson process at ``pair_rate`` over
    ``duration_rng`` seconds.  Each pair's joint outcome (a, beta) is sampled
    from the source's Born probabilities at the fixed RNG setting and basis;
    a null leaves no Alice tag, and Bob's photon survives to detection
    independently with probability ``eta_bob``.  Small Gaussian
    timing jitter is applied per detector so the coincidence window does real
    work.  Optional dark tags are uncorrelated and uniform in time.
    """
    pair_times, alice, bob = _stream_draws(config)
    alice_tags = _party_tags(PARTY_ALICE, pair_times, *alice)[0]
    del alice  # her draws go before Bob's tags are assembled
    bob_tags = _party_tags(PARTY_BOB, pair_times, *bob)[0]
    return StreamResult(alice_tags=alice_tags, bob_tags=bob_tags)


def coincidences(alice_tags: np.ndarray, bob_tags: np.ndarray, window: float = 3e-9) -> np.ndarray:
    """Pair up detections within the coincidence window.

    Each Bob tag, in time order, is matched with the earliest not-yet-used
    Alice tag within ``window`` seconds; each tag is used at most once.
    Returns one ``PAIR_DTYPE`` record per matched pair, the indices of its
    two tags, ordered by Bob timestamp; ``raw_bits`` reads Alice's channels
    through them.  Raises on unsorted input.

    The earliest Alice tag not before a Bob tag's window is found by binary
    search.  It is the match unless an earlier Bob tag took it, which can
    only happen when the two Bob windows overlap; those runs of overlapping
    windows are resolved in order.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    for name, tags in (("alice", alice_tags), ("bob", bob_tags)):
        times = tags["time_ps"].view(np.int64)
        if np.any(times[1:] < times[:-1]):
            raise ValueError(f"{name} stream is not sorted by timestamp")
    if not len(alice_tags):
        return np.empty(0, dtype=PAIR_DTYPE)
    a = alice_tags["time_ps"].astype(np.int64)
    b = bob_tags["time_ps"].astype(np.int64)

    window_ps = int(round(window * _PS_PER_SECOND))
    # Candidate per Bob tag: the first Alice tag with time >= bob - window, a
    # hit if also <= bob + window (one past the end clips to a tag < bob - window).
    b -= window_ps
    first = np.searchsorted(a, b, "left")
    b += window_ps
    gap = a.take(first, mode="clip")
    gap -= b
    np.abs(gap, out=gap)
    hit = gap <= window_ps
    del gap
    # Bob tags whose window overlaps the previous one's.  An earlier Bob tag
    # of the same run may have used the candidate, so the sequential sweep's
    # rule applies: start from max(pointer, candidate), and a match moves the
    # pointer past the used tag.  A run's first tag is exact already.
    linked = np.flatnonzero(np.diff(b) <= 2 * window_ps) + 1
    if len(linked):
        starts = (first[linked - 1] + hit[linked - 1]).tolist()
        in_run = (np.diff(linked, prepend=-1) == 1).tolist()
        cands = first[linked].tolist()
        highs = (b[linked] + window_ps).tolist()
        n_a, time_of = len(a), a.item
        picked, matched = [], []
        ptr = 0
        for cand, high, follows, start in zip(cands, highs, in_run, starts):
            i = max(ptr if follows else start, cand)
            ok = i < n_a and time_of(i) <= high
            picked.append(i)
            matched.append(ok)
            ptr = i + ok
        first[linked] = picked
        hit[linked] = matched
        del time_of  # the bound method would keep a alive
    del a, b

    out = np.empty(np.count_nonzero(hit), dtype=PAIR_DTYPE)
    out["alice_index"] = first[hit]
    del first
    out["bob_index"] = np.flatnonzero(hit)
    return out


def raw_bits(alice_tags: np.ndarray, pairs: np.ndarray) -> BitString:
    """Raw-bit string from coincidences: the channel of each pair's Alice
    tag, in Bob-time order."""
    return BitString(alice_tags["channel"][pairs["alice_index"]])


# ---------------------------------------------------------------------------
# Time-tag files: versioned text header followed by packed binary records.

_TAGS_FORMAT = "timetags-v1"


def save_timetags(tags: np.ndarray, path, header: dict | None = None):
    """Write a tag stream: text header, ``end-header`` line, raw records."""
    lines = [f"format {_TAGS_FORMAT}"]
    for key, value in (header or {}).items():
        key = str(key)
        if any(ch.isspace() for ch in key):
            raise ValueError(f"header key may not contain whitespace: {key!r}")
        lines.append(f"{key} {value}")
    lines.append(f"records {len(tags)}")
    lines.append("end-header")
    blob = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(np.ascontiguousarray(tags, dtype=TAG_DTYPE).tobytes())


def load_timetags(path) -> tuple[np.ndarray, dict]:
    """Read a tag stream; returns (records, header dict)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header: dict[str, str] = {}
    offset = 0
    first = True
    records = None
    while True:
        end = data.find(b"\n", offset)
        if end < 0:
            raise ValueError(f"{path}: missing end-header line")
        line = data[offset:end].decode("ascii")
        offset = end + 1
        if first:
            if line != f"format {_TAGS_FORMAT}":
                raise ValueError(f"{path}: not a {_TAGS_FORMAT} file (got {line!r})")
            first = False
            continue
        if line == "end-header":
            break
        key, _, value = line.partition(" ")
        if key == "records":
            records = int(value)
        else:
            header[key] = value
    if records is None:
        raise ValueError(f"{path}: header lacks a records count")
    body = data[offset:]
    if len(body) != records * TAG_DTYPE.itemsize:
        raise ValueError(
            f"{path}: expected {records} records "
            f"({records * TAG_DTYPE.itemsize} bytes), found {len(body)} bytes"
        )
    tags = np.frombuffer(body, dtype=TAG_DTYPE).copy()
    return tags, header
