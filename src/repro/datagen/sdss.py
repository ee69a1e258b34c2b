"""Synthetic Sloan Digital Sky Survey-like catalog.

The paper's experiments use a query log derived from the public SDSS
SkyServer.  We have no network access, so this module generates a
deterministic synthetic catalog with the same *shape* the log queries
expect: ``stars``, ``galaxies`` and ``quasars`` tables, each with an
``objid`` key, the five photometric magnitudes ``u, g, r, i, z``, sky
coordinates ``ra, dec`` and a redshift column.  The interface-generation
algorithm never looks at the data — only the interaction runtime and the
visualization demos do — so any catalog with this schema exercises the
same code paths.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..database import Database, Table

#: (table name, objid offset, magnitude mean, redshift range)
_TABLE_SPECS: Tuple[Tuple[str, int, float, Tuple[float, float]], ...] = (
    ("stars", 1_000_000, 14.0, (0.0, 0.001)),
    ("galaxies", 2_000_000, 17.5, (0.01, 0.8)),
    ("quasars", 3_000_000, 19.0, (0.5, 5.0)),
)

#: Color offsets (relative to the r magnitude) per band, loosely mimicking
#: real photometric colors so scatter plots look plausible.
_BAND_OFFSETS: Dict[str, float] = {"u": 1.8, "g": 0.6, "r": 0.0, "i": -0.3, "z": -0.5}


def make_sdss_database(rows_per_table: int = 500, seed: int = 42) -> Database:
    """Build the synthetic SDSS catalog.

    Args:
        rows_per_table: number of objects per table.
        seed: RNG seed; the same seed always yields the same catalog.

    Returns:
        A :class:`repro.database.Database` with ``stars``, ``galaxies``
        and ``quasars`` tables.
    """
    rng = random.Random(seed)
    db = Database()
    for name, offset, mean_mag, (z_lo, z_hi) in _TABLE_SPECS:
        db.add_table(_make_table(name, offset, mean_mag, z_lo, z_hi, rows_per_table, rng))
    return db


def _make_table(
    name: str,
    objid_offset: int,
    mean_mag: float,
    z_lo: float,
    z_hi: float,
    nrows: int,
    rng: random.Random,
) -> Table:
    objid: List[int] = []
    bands: Dict[str, List[float]] = {b: [] for b in _BAND_OFFSETS}
    ra: List[float] = []
    dec: List[float] = []
    redshift: List[float] = []
    for i in range(nrows):
        objid.append(objid_offset + i)
        base = rng.gauss(mean_mag, 2.0)
        base = min(max(base, 0.5), 29.5)
        for band, offset in _BAND_OFFSETS.items():
            mag = base + offset + rng.gauss(0.0, 0.4)
            bands[band].append(round(min(max(mag, 0.0), 30.0), 3))
        ra.append(round(rng.uniform(0.0, 360.0), 4))
        dec.append(round(rng.uniform(-90.0, 90.0), 4))
        redshift.append(round(rng.uniform(z_lo, z_hi), 4))
    columns: Dict[str, List] = {"objid": objid}
    columns.update(bands)
    columns["ra"] = ra
    columns["dec"] = dec
    columns["redshift"] = redshift
    return Table(name, columns)
