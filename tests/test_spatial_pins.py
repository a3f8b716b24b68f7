"""Pins of the spatial atlas's output.

The atlas is a view over the perf counter file: its traffic, delivery
and hop totals are read from the file's per-(src core, dst core) rows.
These digests were recorded when the atlas still kept private per-pair
ledgers that the UDN fabric wrote into; reading the rows instead must
leave every byte of its summary (hop totals included) and of its
``spatial.*`` ring series unchanged.
"""

import hashlib
import json

import repro.obs as obs
from repro.machine import mesh_profile, tile_gx
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)

#: scenario -> (sha256 of rec.spatial, sha256 of the spatial.* series)
PINS = {
    "mp-server-tile-gx": (
        "eef13554a00e70fc21efe445245cca20d410ada7b950637542bb9c3cfbea96f3",
        "7064c14de9cf1c3b6483597a1c59133c796c954e45bcef879f0910fdda6fd683"),
    "hybcomb-contended-4x4": (
        "6044a6d5d770c0ab37524a1aea3292c64bdcf9d8847b492d17f9a07eaf717749",
        "54cc93dbeb03f7b44d3e4477c7f436ed58e9b370bb15ad2fd4ae03d65617908a"),
}

SCENARIOS = {
    "mp-server-tile-gx": lambda: run_counter_benchmark(
        "mp-server", 12, spec=SPEC, cfg=tile_gx()),
    "hybcomb-contended-4x4": lambda: run_counter_benchmark(
        "HybComb", 10, spec=SPEC, cfg=mesh_profile(4, 4, contended_noc=True)),
}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _atlas_digests(scenario):
    with obs.observed(spatial_hops=True, timeseries=True,
                      sample_every=64) as session:
        SCENARIOS[scenario]()
    (rec,) = session.records()
    series = {name: ts.to_dict()
              for name, ts in rec.timeseries["series"].items()
              if name.startswith("spatial.")}
    assert rec.spatial["hops"]["messages"] > 0 and series
    return _digest(rec.spatial), _digest(series)


def test_atlas_output_is_pinned():
    got = {name: _atlas_digests(name) for name in SCENARIOS}
    assert got == PINS
