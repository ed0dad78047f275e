"""Channel coding: repetition, Hamming(7,4), convolutional + Viterbi.

The paper's rate formula carries a coding-rate term ``r_c`` and notes
that 16QAM "may need heavy error correction techniques" to be usable
(§III-7).  This module provides that machinery:

* :class:`RepetitionCode` — the scheme the unlocking protocol uses on
  the OTP token (simple, majority-decoded, odd factors);
* :class:`HammingCode` — the classic (7,4) single-error-correcting
  block code;
* :class:`ConvolutionalCode` — rate-1/2 constraint-length-7 code with
  hard-decision Viterbi decoding (the industry-standard generators
  133/171 octal);
* :class:`BlockInterleaver` — spreads burst errors (a jammed OFDM
  symbol) across many codewords.

All codes share one interface: ``encode(bits) -> coded``,
``decode(coded) -> bits``, and a ``rate`` property usable as the
``r_c`` in :func:`repro.modem.snr.data_rate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModemError


class Code:
    """Interface for channel codes (see module docstring)."""

    @property
    def rate(self) -> float:
        """Information bits per coded bit (``r_c`` in the paper)."""
        raise NotImplementedError

    def encode(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, coded: np.ndarray, n_bits: int) -> np.ndarray:
        """Decode ``coded`` back to ``n_bits`` information bits."""
        raise NotImplementedError

    @staticmethod
    def _check_bits(bits: np.ndarray, name: str = "bits") -> np.ndarray:
        b = np.asarray(bits)
        if b.ndim != 1:
            raise ModemError(f"{name} must be 1-D")
        if b.size and not np.all((b == 0) | (b == 1)):
            raise ModemError(f"{name} must contain only 0 and 1")
        return b.astype(np.uint8)


@dataclass(frozen=True)
class RepetitionCode(Code):
    """Repeat each bit ``factor`` times; decode by majority vote."""

    factor: int = 5

    def __post_init__(self) -> None:
        if self.factor < 1 or self.factor % 2 == 0:
            raise ModemError("repetition factor must be a positive odd int")

    @property
    def rate(self) -> float:
        return 1.0 / self.factor

    def encode(self, bits: np.ndarray) -> np.ndarray:
        b = self._check_bits(bits)
        return np.repeat(b, self.factor)

    def decode(self, coded: np.ndarray, n_bits: int) -> np.ndarray:
        c = self._check_bits(coded, "coded")
        full = np.zeros(n_bits * self.factor, dtype=np.uint8)
        usable = min(c.size, full.size)
        full[:usable] = c[:usable]
        groups = full.reshape(n_bits, self.factor)
        return (groups.sum(axis=1) * 2 > self.factor).astype(np.uint8)


class HammingCode(Code):
    """The (7,4) Hamming code: corrects one bit error per codeword."""

    #: Generator matrix (4 info bits -> 7 coded bits), systematic form.
    _G = np.array(
        [
            [1, 0, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
        dtype=np.uint8,
    )
    #: Parity-check matrix.
    _H = np.array(
        [
            [1, 1, 0, 1, 1, 0, 0],
            [1, 0, 1, 1, 0, 1, 0],
            [0, 1, 1, 1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )

    def __init__(self) -> None:
        # Precompute the syndrome -> error-position table.
        self._syndrome_to_pos = {}
        for pos in range(7):
            error = np.zeros(7, dtype=np.uint8)
            error[pos] = 1
            syndrome = tuple((self._H @ error) % 2)
            self._syndrome_to_pos[syndrome] = pos

    @property
    def rate(self) -> float:
        return 4.0 / 7.0

    def encode(self, bits: np.ndarray) -> np.ndarray:
        b = self._check_bits(bits)
        pad = (-b.size) % 4
        padded = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
        blocks = padded.reshape(-1, 4)
        coded = (blocks @ self._G) % 2
        return coded.reshape(-1).astype(np.uint8)

    def decode(self, coded: np.ndarray, n_bits: int) -> np.ndarray:
        c = self._check_bits(coded, "coded")
        n_blocks = (n_bits + 3) // 4
        full = np.zeros(n_blocks * 7, dtype=np.uint8)
        usable = min(c.size, full.size)
        full[:usable] = c[:usable]
        out = np.zeros(n_blocks * 4, dtype=np.uint8)
        for i in range(n_blocks):
            word = full[i * 7: (i + 1) * 7].copy()
            syndrome = tuple((self._H @ word) % 2)
            if syndrome != (0, 0, 0):
                pos = self._syndrome_to_pos.get(syndrome)
                if pos is not None:
                    word[pos] ^= 1
            out[i * 4: (i + 1) * 4] = word[:4]
        return out[:n_bits]


class ConvolutionalCode(Code):
    """Rate-1/2, K=7 convolutional code with hard-decision Viterbi.

    Generators 133/171 (octal) — the ubiquitous "Voyager" code used by
    802.11, DVB and countless modems.  The encoder is zero-terminated
    (K-1 tail bits) so the decoder can start and end in state 0.
    """

    K = 7
    _G1 = 0o133
    _G2 = 0o171

    def __init__(self) -> None:
        n_states = 1 << (self.K - 1)
        # Precompute transitions: for state s and input bit b,
        # next state and the two output bits.
        self._next = np.zeros((n_states, 2), dtype=np.int64)
        self._out = np.zeros((n_states, 2, 2), dtype=np.uint8)
        for state in range(n_states):
            for bit in (0, 1):
                register = (bit << (self.K - 1)) | state
                o1 = bin(register & self._G1).count("1") & 1
                o2 = bin(register & self._G2).count("1") & 1
                self._next[state, bit] = register >> 1
                self._out[state, bit] = (o1, o2)

    @property
    def rate(self) -> float:
        # Asymptotic rate; the K-1 tail bits cost a little extra.
        return 0.5

    def encode(self, bits: np.ndarray) -> np.ndarray:
        b = self._check_bits(bits)
        stream = np.concatenate(
            [b, np.zeros(self.K - 1, dtype=np.uint8)]  # zero termination
        )
        out = np.empty(2 * stream.size, dtype=np.uint8)
        state = 0
        for i, bit in enumerate(stream):
            out[2 * i], out[2 * i + 1] = self._out[state, bit]
            state = self._next[state, bit]
        return out

    def decode(self, coded: np.ndarray, n_bits: int) -> np.ndarray:
        c = self._check_bits(coded, "coded")
        total = n_bits + self.K - 1
        needed = 2 * total
        full = np.zeros(needed, dtype=np.uint8)
        usable = min(c.size, needed)
        full[:usable] = c[:usable]

        n_states = 1 << (self.K - 1)
        inf = np.iinfo(np.int64).max // 4
        metric = np.full(n_states, inf, dtype=np.int64)
        metric[0] = 0
        # survivors[t, s] = (previous state, input bit) packed.
        survivors = np.zeros((total, n_states), dtype=np.int64)

        for t in range(total):
            r1, r2 = int(full[2 * t]), int(full[2 * t + 1])
            new_metric = np.full(n_states, inf, dtype=np.int64)
            new_surv = np.zeros(n_states, dtype=np.int64)
            for state in range(n_states):
                m = metric[state]
                if m >= inf:
                    continue
                for bit in (0, 1):
                    o1, o2 = self._out[state, bit]
                    cost = (o1 != r1) + (o2 != r2)
                    nxt = self._next[state, bit]
                    candidate = m + cost
                    if candidate < new_metric[nxt]:
                        new_metric[nxt] = candidate
                        new_surv[nxt] = (state << 1) | bit
            metric = new_metric
            survivors[t] = new_surv

        # Traceback from state 0 (zero-terminated encoder).
        state = 0 if metric[0] < inf else int(np.argmin(metric))
        decoded = np.zeros(total, dtype=np.uint8)
        for t in range(total - 1, -1, -1):
            packed = survivors[t, state]
            decoded[t] = packed & 1
            state = int(packed >> 1)
        return decoded[:n_bits]


@dataclass(frozen=True)
class BlockInterleaver:
    """Row-in, column-out block interleaver.

    Writes the coded stream row-wise into a ``rows x cols`` matrix and
    reads it out column-wise, so a burst of ``cols`` consecutive
    channel errors lands in ``cols`` different codewords.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ModemError("interleaver dimensions must be >= 1")

    @property
    def block_size(self) -> int:
        return self.rows * self.cols

    def interleave(self, bits: np.ndarray) -> np.ndarray:
        b = Code._check_bits(bits)
        pad = (-b.size) % self.block_size
        padded = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
        out = []
        for i in range(0, padded.size, self.block_size):
            block = padded[i: i + self.block_size]
            out.append(block.reshape(self.rows, self.cols).T.reshape(-1))
        return np.concatenate(out)

    def deinterleave(self, bits: np.ndarray, n_bits: int) -> np.ndarray:
        b = Code._check_bits(bits)
        pad = (-b.size) % self.block_size
        padded = np.concatenate([b, np.zeros(pad, dtype=np.uint8)])
        out = []
        for i in range(0, padded.size, self.block_size):
            block = padded[i: i + self.block_size]
            out.append(block.reshape(self.cols, self.rows).T.reshape(-1))
        return np.concatenate(out)[:n_bits]


def get_code(name: str) -> Code:
    """Look up a code by name: 'repetition-N', 'hamming74', 'conv-k7'."""
    if name.startswith("repetition-"):
        return RepetitionCode(int(name.split("-", 1)[1]))
    if name == "hamming74":
        return HammingCode()
    if name == "conv-k7":
        return ConvolutionalCode()
    raise ModemError(
        f"unknown code {name!r}; expected 'repetition-N', "
        "'hamming74' or 'conv-k7'"
    )
