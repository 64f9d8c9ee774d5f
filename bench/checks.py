"""Output checks that feed `failed_frac`.

`check_run` inspects one finished `Simulation`; `check_outputs` compares
the files a pass wrote with those of the reference pass of the same seed.
Each returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def check_run(sim) -> list[str]:
    problems = []
    store = sim.store
    if not store.conservation_holds():
        problems.append("log store conservation broken")
    if sim.delivered_records > store.appended:
        problems.append(f"delivered {sim.delivered_records} > appended {store.appended}")
    if sim.requests_answered > sim.requests_arrived:
        problems.append(
            f"answered {sim.requests_answered} > arrived {sim.requests_arrived}")
    seqs = [seq for seq, _payload in sim.host.presented]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        problems.append("host presented a seq twice or out of order")
    return problems


def summarize(sim) -> dict:
    """Model counts of one run, for the per-layer report."""
    cfg, store = sim.cfg, sim.store
    channel = getattr(sim.driver, "channel", None)
    slots = boundaries = 0
    if channel is not None:
        slot_bits = sys.modules[type(channel).__module__].SLOT_BITS
        slots = channel.delivered_bits // slot_bits
        boundaries = round(channel.next_boundary / channel.slot_time) - 1
    return {
        "steps": round(cfg.duration / cfg.dt),
        "appended": store.appended,
        "delivered": sim.delivered_records,
        "brownouts": sim.brownout_count,
        "requests_arrived": sim.requests_arrived,
        "requests_answered": sim.requests_answered,
        "evicted": store.evicted,
        "dropped": store.dropped,
        "lost_unflushed": store.lost_unflushed,
        "slots_delivered": slots,
        "slot_boundaries": boundaries,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_dir(path: Path) -> dict[str, str]:
    """SHA-256 of every file in `path`, by file name; {} if there is no `path`."""
    if not path.is_dir():
        return {}
    return {p.name: sha256(p.read_bytes()) for p in sorted(path.iterdir()) if p.is_file()}


def check_outputs(reference: dict[str, str], got: dict[str, str]) -> list[str]:
    problems = [f"{name} missing" for name in sorted(reference.keys() - got.keys())]
    problems += [f"{name} unexpected" for name in sorted(got.keys() - reference.keys())]
    problems += [f"{name} differs" for name in sorted(reference.keys() & got.keys())
                 if reference[name] != got[name]]
    return problems
