"""Seeded input generation for the benchmark workloads.

Inputs are made in a child interpreter (this file run as a script), so
neither their generation time nor their memory high-water counts toward
the measured run.  The child returns plain bytes and text, pickled on
its standard output; the program under test receives only those.

A dataset's molecular system (its PDB: atom count and composition) comes
from a fixed structure seed, and its trajectory from the run's seed: every
seed simulates the same system, so seeds move coordinates, not sizes.

``pin_digest`` hashes a small dataset made exactly as a workload makes
its own (the workload's structure seed, chunk and segment sizes and
keyframe interval) at the default seed: the PDB text and every encoded
blob, so it covers ``repro.datagen`` and the ``encode_raw``/``encode_xtc``
layouts alike.  ``pins.json`` records the digest per workload, and every
run recomputes it: if data generation or the input encodings change, the
benchmark fails instead of silently measuring different inputs.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass
class Dataset:
    """One generated dataset: structure text plus trajectory pieces."""

    logical: str
    pdb_text: str
    #: Raw-container chunks preloaded during set-up.
    preload: List[bytes] = field(default_factory=list)
    #: XTC segments appended in the timed phase.
    segments: List[bytes] = field(default_factory=list)


def _system_and_frames(
    natoms: int, nframes: int, structure_seed: int, seed: int
):
    from repro.datagen import build_gpcr_system, generate_trajectory
    from repro.formats import write_pdb

    system = build_gpcr_system(natoms_target=natoms, seed=structure_seed)
    trajectory = generate_trajectory(system, nframes=nframes, seed=seed)
    return write_pdb(system.topology, system.coords), trajectory


def make_dataset(
    logical: str,
    natoms: int,
    structure_seed: int,
    seed: int,
    preload_chunks: int,
    preload_frames: int,
    segments: int = 0,
    segment_frames: int = 0,
    keyframe_interval: int = 10,
) -> Dataset:
    """One dataset: ``preload_chunks`` raw chunks, then XTC segments."""
    from repro.formats.xtc import encode_raw, encode_xtc

    nframes = preload_chunks * preload_frames + segments * segment_frames
    pdb_text, trajectory = _system_and_frames(
        natoms, nframes, structure_seed, seed
    )
    out = Dataset(logical=logical, pdb_text=pdb_text)
    for i in range(preload_chunks):
        lo = i * preload_frames
        out.preload.append(
            encode_raw(trajectory.slice_frames(lo, lo + preload_frames))
        )
    base = preload_chunks * preload_frames
    for i in range(segments):
        lo = base + i * segment_frames
        out.segments.append(
            encode_xtc(
                trajectory.slice_frames(lo, lo + segment_frames),
                keyframe_interval=keyframe_interval,
            )
        )
    return out


def pin_digest(spec: dict) -> str:
    """Digest of the dataset ``make_dataset(**spec)`` gives: its PDB text
    and every preload and segment blob, in order."""
    data = make_dataset(**spec)
    h = hashlib.sha256(data.pdb_text.encode())
    for blob in data.preload + data.segments:
        h.update(blob)
    return h.hexdigest()


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text())


def _generate(specs: List[dict], pin: dict) -> dict:
    return {
        "datasets": [make_dataset(**spec) for spec in specs],
        "pin": pin_digest(pin),
    }


def generate(specs: List[dict], pin: dict) -> dict:
    """Build every dataset in ``specs`` plus the pin digest in a child
    interpreter, which has exited when this returns."""
    out = subprocess.run(
        [sys.executable, __file__, json.dumps({"specs": specs, "pin": pin})],
        capture_output=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(
            "input generation failed:\n" + out.stderr.decode(errors="replace")
        )
    return pickle.loads(out.stdout)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    # Import by package name so the pickled classes resolve in the parent.
    from perfbench.inputs import _generate as generate_in_child

    result = generate_in_child(**json.loads(sys.argv[1]))
    sys.stdout.buffer.write(pickle.dumps(result))
