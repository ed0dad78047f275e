"""OFDM symbol/frame construction exactly as the paper defines it.

Equation (1): the frequency-domain vector ``X`` is inverse-FFT'd and the
transmitted baseband signal is the *real part* ``s_n = Re(x_n)``.  The
mirror-image energy loss this implies is absorbed by the unit-power
pilot equalization at the receiver (both pilots and data are halved by
the same factor).

Frame layout::

    | preamble | guard | CP | body | Tg | CP | body | Tg | ... |

* ``CP`` — cyclic prefix: the last ``cp_length`` samples of the body,
  prepended (ISI guard + fine-sync anchor, eq. 2);
* ``Tg`` — zero symbol guard absorbing speaker ringing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModemConfig
from ..errors import ModemError
from .subchannels import ChannelPlan

#: Unit-power pilot value inserted on every pilot bin.
PILOT_VALUE: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class FrameLayout:
    """Sample-accurate offsets of a frame with ``n_symbols`` symbols."""

    preamble_length: int
    guard_length: int
    cp_length: int
    fft_size: int
    symbol_guard: int
    n_symbols: int

    @property
    def symbol_stride(self) -> int:
        """Samples from one symbol's CP start to the next's."""
        return self.cp_length + self.fft_size + self.symbol_guard

    @property
    def first_symbol_offset(self) -> int:
        """Offset of the first CP sample from the frame start."""
        return self.preamble_length + self.guard_length

    @property
    def total_length(self) -> int:
        return self.first_symbol_offset + self.n_symbols * self.symbol_stride

    def symbol_offsets(self) -> np.ndarray:
        """CP-start offset of every symbol relative to the frame start."""
        base = self.first_symbol_offset
        return base + self.symbol_stride * np.arange(self.n_symbols)


def frame_layout(config: ModemConfig, n_symbols: int) -> FrameLayout:
    """Build the :class:`FrameLayout` for ``n_symbols`` OFDM symbols."""
    if n_symbols < 1:
        raise ModemError("a frame needs at least one symbol")
    return FrameLayout(
        preamble_length=config.preamble_length,
        guard_length=config.guard_length,
        cp_length=config.cp_length,
        fft_size=config.fft_size,
        symbol_guard=config.symbol_guard,
        n_symbols=n_symbols,
    )


def modulate_symbols(
    config: ModemConfig,
    plan: ChannelPlan,
    data_symbols: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """Build a whole symbol train as one ``(n_symbols, stride)`` array.

    Row ``i`` is the time-domain symbol (CP + body + guard) carrying
    ``data_symbols[i]``: the spectra are filled with one fancy column
    write, the IFFTs run as one stacked transform, and the CP/body/guard
    layout is a single preallocated write instead of per-symbol
    concatenation.  :func:`modulate_symbol` is its one-row call.
    """
    s = np.asarray(data_symbols, dtype=np.complex128)
    if s.ndim != 2:
        raise ModemError("data_symbols must be 2-D (n_symbols, n_data)")
    if s.shape[1] != len(plan.data):
        raise ModemError(
            f"expected {len(plan.data)} data symbols, got {s.shape[1]}"
        )
    n = config.fft_size
    n_symbols = s.shape[0]
    spectra = np.zeros((n_symbols, n), dtype=np.complex128)
    spectra[:, sorted(plan.data)] = s
    spectra[:, list(plan.pilots)] = PILOT_VALUE

    if hermitian:
        # Mirror the occupied bins so the IFFT itself is real.
        ks = np.arange(1, n // 2)
        if ks.size:
            vals = spectra[:, ks]
            spectra[:, n - ks] = np.where(
                vals != 0, np.conj(vals), spectra[:, n - ks]
            )
        bodies = np.fft.ifft(spectra, axis=1).real
    else:
        bodies = np.real(np.fft.ifft(spectra, axis=1))

    cp_len = config.cp_length
    out = np.zeros((n_symbols, cp_len + n + config.symbol_guard))
    if cp_len:
        out[:, :cp_len] = bodies[:, -cp_len:]
    out[:, cp_len: cp_len + n] = bodies
    return out


def modulate_symbol(
    config: ModemConfig,
    plan: ChannelPlan,
    data_symbols: np.ndarray,
    hermitian: bool = False,
) -> np.ndarray:
    """Build one time-domain OFDM symbol (CP + body + guard).

    Parameters
    ----------
    data_symbols:
        One complex value per data bin of ``plan`` (in ascending bin
        order).  Pilot bins get :data:`PILOT_VALUE`; everything else is
        null.
    hermitian:
        Ablation switch: ``True`` builds a conjugate-symmetric spectrum
        (textbook real-OFDM) instead of the paper's ``Re(IFFT(X))``.
        Both produce real signals; the paper's variant wastes the mirror
        half's energy but is what the system actually shipped.
    """
    s = np.asarray(data_symbols, dtype=np.complex128)
    if s.size != len(plan.data):
        raise ModemError(
            f"expected {len(plan.data)} data symbols, got {s.size}"
        )
    return modulate_symbols(
        config, plan, s.reshape(1, -1), hermitian=hermitian
    )[0]


def demodulate_blocks(
    config: ModemConfig, blocks: np.ndarray
) -> np.ndarray:
    """FFT a stack of received OFDM bodies (CP already stripped).

    ``blocks`` is ``(n_symbols, samples)`` with ``samples >= fft_size``;
    returns the ``(n_symbols, fft_size)`` complex spectra in one stacked
    transform.
    """
    x = np.asarray(blocks, dtype=np.float64)
    if x.ndim != 2:
        raise ModemError("blocks must be 2-D (n_symbols, samples)")
    if x.shape[1] < config.fft_size:
        raise ModemError(
            f"block of {x.shape[1]} samples shorter than FFT size "
            f"{config.fft_size}"
        )
    return np.fft.fft(x[:, : config.fft_size], axis=1)


def demodulate_block(
    config: ModemConfig, block: np.ndarray
) -> np.ndarray:
    """FFT one received OFDM body (CP already stripped) to all bins.

    The one-row call of :func:`demodulate_blocks`.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 1:
        raise ModemError("block must be a 1-D sample array")
    return demodulate_blocks(config, x[None, :])[0]


def assemble_frame(
    config: ModemConfig,
    preamble: np.ndarray,
    symbols: np.ndarray,
) -> np.ndarray:
    """Concatenate preamble, post-preamble guard, and symbol train."""
    p = np.asarray(preamble, dtype=np.float64)
    if p.size != config.preamble_length:
        raise ModemError(
            f"preamble length {p.size} != configured "
            f"{config.preamble_length}"
        )
    s = np.asarray(symbols, dtype=np.float64)
    if s.ndim != 1:
        raise ModemError("symbols must be a 1-D sample train")
    out = np.zeros(p.size + config.guard_length + s.size)
    out[: p.size] = p
    out[p.size + config.guard_length:] = s
    return out
