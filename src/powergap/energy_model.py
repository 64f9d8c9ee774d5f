"""Capacitor-backed supply model.

The simulated device rides through unpowered track gaps on a single
capacitor.  Discharge follows the linear constant-current law
V = V0 - I*t/C, where I depends on the device power state (clock tier x
radio mode).  Per-state currents are calibrated from bench-measured
maximum voltage drops over a known gap duration via I = C*dV/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, count, islice, repeat
from operator import itemgetter
from typing import IO, Iterator, Mapping, NamedTuple, Optional


class ClockTier(Enum):
    C80 = 80
    C160 = 160
    C240 = 240

    # members are singletons that compare by identity: hash them in C
    __hash__ = object.__hash__


class RadioMode(Enum):
    OFF = "off"
    IDLE_CONNECTED = "idle"
    TRANSMITTING = "tx"

    __hash__ = object.__hash__


class ByValue:
    """Equality and `repr` over the attributes `_fields` names, in a
    dataclass's words, for the plain classes whose instances are compared:
    unlike a dataclass, they generate and compile no code on import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        text = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({text})"


class PowerState(NamedTuple):
    """Device operating point: one clock tier plus one radio mode."""

    clock: ClockTier
    radio: RadioMode

    def __str__(self) -> str:
        return f"c{self.clock.value}_{self.radio.value}"


ALL_POWER_STATES: tuple[PowerState, ...] = tuple(
    PowerState(c, r) for c in ClockTier for r in RadioMode
)

#: Bench-measured maximum capacitor voltage drops (volts) per power state
#: over one 20 ms gap.  The two 240 MHz radio-on cells are absent: those
#: configurations consistently browned out, so no maximum was observable.
MEASURED_DROPS: Mapping[PowerState, float] = {
    PowerState(ClockTier.C80, RadioMode.OFF): 1.62,
    PowerState(ClockTier.C80, RadioMode.IDLE_CONNECTED): 1.91,
    PowerState(ClockTier.C80, RadioMode.TRANSMITTING): 2.64,
    PowerState(ClockTier.C160, RadioMode.OFF): 2.11,
    PowerState(ClockTier.C160, RadioMode.IDLE_CONNECTED): 2.20,
    PowerState(ClockTier.C160, RadioMode.TRANSMITTING): 2.82,
    PowerState(ClockTier.C240, RadioMode.OFF): 2.49,
}

#: Current (amperes) assigned to states with no measurable drop.  The
#: default produces a 5.0 V modeled drop over a 20 ms gap, past the 4.0 V
#: brownout threshold, reproducing the consistent failures.
DEFAULT_BURST_CURRENT = 0.250


class ConfigError(ValueError):
    """Invalid configuration.

    `keys` names the scenario-file `(section, key)` pairs the error
    blames, best first: a file's error cites the line of the first one
    the file sets, prefixed with that key's name when `keyed`.  Ranges are
    checked (`check_range`) by the class that owns each field.
    """

    def __init__(self, message: str, *keys: tuple[str, str], keyed: bool = False) -> None:
        super().__init__(message)
        self.keys = keys
        self.keyed = keyed


def check_range(value: float, key: tuple[str, str], minimum: float,
                exclusive: bool = False, maximum: Optional[float] = None,
                error: type[ConfigError] = ConfigError) -> None:
    """Refuse `value` below `minimum` (or at it, if `exclusive`), infinite
    or above `maximum`, in the scenario file's words for `key`, which it
    blames.  Every comparison with NaN is false, so NaN is refused too."""
    if not (value > minimum if exclusive else value >= minimum):
        raise error(f"{key[1]}: must be {'>' if exclusive else '>='} {minimum}", key)
    if value == math.inf:
        raise error(f"{key[1]}: must be finite", key)
    if maximum is not None and not value <= maximum:
        raise error(f"{key[1]}: must be <= {maximum}", key)


class CalibrationError(ConfigError):
    """Invalid calibration input: a negative drop or burst current, blaming
    its `("energy", "drop_<state>")` or `("energy", "burst_current")` key."""


@dataclass
class EnergyModelParams:
    """Capacitor and per-power-state current figures the energy model runs on."""

    capacitance: float = 1.0e-3          # farads
    nominal_voltage: float = 9.0         # volts
    brownout_drop: float = 4.0           # volts below nominal that reboots
    gap_duration: float = 0.020          # seconds of ride-through per gap
    current_table: dict[PowerState, float] = field(default_factory=dict)

    def validate(self) -> None:
        self.validate_supply()
        for state in ALL_POWER_STATES:
            if state not in self.current_table:
                raise ConfigError(f"no current configured for state {state}")
            check_range(self.current_table[state], ("energy", f"current_{state}"), 0.0)

    def validate_supply(self) -> None:
        """The capacitor values, which `calibrate_currents` reads too."""
        for key in ("capacitance", "nominal_voltage", "brownout_drop", "gap_duration"):
            check_range(getattr(self, key), ("energy", key), 0.0, exclusive=True)
        if not self.brownout_drop < self.nominal_voltage:
            raise ConfigError(
                f"brownout_drop ({self.brownout_drop}) must be below "
                f"nominal_voltage ({self.nominal_voltage})",
                ("energy", "brownout_drop"), ("energy", "nominal_voltage"),
            )

    def current(self, state: PowerState) -> float:
        try:
            return self.current_table[state]
        except KeyError:
            raise ConfigError(f"no current configured for state {state}") from None

    @classmethod
    def calibrated(
        cls,
        drops: Mapping[PowerState, float] = MEASURED_DROPS,
        burst_current: float = DEFAULT_BURST_CURRENT,
        **kwargs: float,
    ) -> "EnergyModelParams":
        """Params with currents back-computed from measured drops."""
        params = cls(**kwargs)
        params.current_table = calibrate_currents(
            drops, params, burst_current=burst_current
        )
        params.validate()
        return params


#: Most rows `VoltageTrace.write_csv` puts in one block, and so in one write.
CSV_CHUNK_ROWS = 4096

#: `write_csv`'s fraction texts `.%06d` of j*step µs, one table per step
_FRACTIONS: dict[int, list[str]] = {}


def csv_micro_step(dt: float, rows: int) -> int:
    """`dt` in whole microseconds `m` when, over `rows` rows, the k-th
    running sum `t += dt` prints with `%.6f` as k*m microseconds; else 0.

    `m` must divide one second into at most CSV_CHUNK_ROWS steps.  Each
    sum then lies within rows*ulp(2*rows*dt)/2 (rounding) plus
    rows*|dt - m*1e-6| (drift) of its whole microsecond; the check below,
    in exact integers, holds that under a quarter microsecond, so `%.6f`
    cannot round it elsewhere.
    """
    if not 1.0 / CSV_CHUNK_ROWS <= dt <= 1.0:
        return 0
    m = round(dt * 1_000_000)
    if 1_000_000 % m or 1_000_000 // m > CSV_CHUNK_ROWS:
        return 0
    p, q = dt.as_integer_ratio()
    a, b = math.ulp(2 * rows * dt).as_integer_ratio()
    # the bound times 4e6*q*b
    rounding = 2_000_000 * rows * a * q
    drift = 4 * rows * b * abs(p * 1_000_000 - m * q)
    return m if rounding + drift < q * b else 0


class VoltageTrace:
    """Uniformly sampled supply and capacitor voltages, held as runs:
    `runs` is a list of (count, supply_v, cap_v), where `cap_v` is one
    voltage for all `count` rows, or a list of `count` voltages, one per
    row (a gap crossing's).  Row k's time is `dt` added k + 1 times to
    0.0, the sum the simulation makes.  `write_csv` takes its time texts
    in blocks from one of two sources: where
    `csv_micro_step` allows, whole microseconds that print the same, a
    second per block; else the running sum itself, CSV_CHUNK_ROWS sums per
    block.  Each write is one piece of one run inside one block.  No block,
    and so no write, holds more than CSV_CHUNK_ROWS rows, so no long run
    becomes one huge string."""

    def __init__(self, runs: list[tuple[int, float, float | list[float]]], dt: float) -> None:
        self.runs = runs
        self.dt = dt

    def __len__(self) -> int:
        return sum(map(itemgetter(0), self.runs))

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        times = accumulate(repeat(self.dt))
        for n, supply, cap in self.runs:
            caps = cap if type(cap) is list else repeat(cap, n)
            for t, v in zip(islice(times, n), caps):
                yield t, supply, v

    def write_csv(self, fp: IO[str]) -> None:
        # the same bytes as csv.writer: formatted numbers need no quoting
        fp.write("time_s,supply_v,cap_v\n")
        # row k's time (k from 1) is a block's prefix + texts[j]: the whole
        # seconds and, from one table, the fraction of k*step µs, or else
        # the k-th running sum; each write is a run's rows in one block, one
        # join with its voltages formatted once into `tail`, or a per-row
        # run's supply once and its voltages by one `%` into the template
        rows = len(self)
        step = csv_micro_step(self.dt, rows)
        if step:
            per = 1_000_000 // step
            if step not in _FRACTIONS:
                _FRACTIONS[step] = [".%06d" % (j * step) for j in range(per)]
            sec, j = divmod(1, per)
            blocks = ((str(s), _FRACTIONS[step]) for s in count(sec))
        else:
            per, j = min(rows, CSV_CHUNK_ROWS), 0  # a short trace: no spare sums
            times = accumulate(repeat(self.dt))
            blocks = (("", ("%.6f\n" * per % tuple(islice(times, per))).split("\n"))
                      for _ in count())
        prefix, texts = next(blocks)
        for n, supply, cap in self.runs:
            per_row = type(cap) is list
            tail = ",%.6f,%%.6f\n" % supply if per_row else ",%.6f,%.6f\n" % (supply, cap)
            i = 0
            while i < n:
                if j == per:  # the next block, only when a row needs it
                    prefix, texts = next(blocks)
                    j = 0
                take = min(n - i, per - j)
                piece = prefix + (tail + prefix).join(texts[j:j + take]) + tail
                fp.write(piece % tuple(cap[i:i + take]) if per_row else piece)
                i += take
                j += take


def discharge_current(
    v0: float, current: float, dt: float, capacitance: float
) -> float:
    """Linear discharge by a raw current; clamped at zero volts."""
    return max(0.0, v0 - current * dt / capacitance)


def calibrate_currents(
    drops: Mapping[PowerState, float],
    params: EnergyModelParams,
    burst_current: float = DEFAULT_BURST_CURRENT,
) -> dict[PowerState, float]:
    """Per-state currents from measured drops: I = C*dV/T.

    States absent from `drops` get `burst_current`; with the defaults that
    models a drop beyond the brownout threshold, matching observed
    behavior for the unmeasurable configurations.  C and T are checked
    first, so a zero gap_duration is refused, not divided by.
    """
    params.validate_supply()
    check_range(burst_current, ("energy", "burst_current"), 0.0, error=CalibrationError)
    table = dict.fromkeys(ALL_POWER_STATES, burst_current)
    for state, drop in drops.items():
        check_range(drop, ("energy", f"drop_{state}"), 0, error=CalibrationError)
        table[state] = params.capacitance * drop / params.gap_duration
    return table
