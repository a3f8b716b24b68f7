"""Dashboard rendering (HTML + terminal) and ``run --obs report``."""

import json

import pytest

import repro.obs as obs
from repro.analysis.dashboard import (
    chart_svg,
    mesh_svg,
    render_dashboard_html,
    render_dashboard_text,
    render_diff_html,
    text_sparkline,
    write_dashboard,
    write_mesh_svg,
)
from repro.obs import SLO
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import tiny_experiment

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)


@pytest.fixture(scope="module")
def session():
    slos = (SLO("p99", kind="latency", target=1e9),
            SLO("tight", kind="latency", target=1.0))  # guaranteed breach
    with obs.observed(timeseries=True, sample_every=256, slos=slos,
                      flight=True) as s:
        run_counter_benchmark("mp-server", 6, spec=SPEC)
    return s


# -- building blocks -------------------------------------------------------

def test_chart_svg_is_inline_svg():
    svg = chart_svg([(0, 1.0), (10, 3.0), (20, 2.0)], color="#345",
                    hline=2.5, marks=((10, "#c00"),))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg
    assert "stroke-dasharray" in svg    # the threshold hline
    assert "#c00" in svg               # the breach mark
    assert "http://" not in svg and "https://" not in svg


def test_chart_svg_empty_and_flat_series():
    assert "<svg" in chart_svg([])
    # a constant series must not divide by zero on the value range
    assert "<svg" in chart_svg([(0, 5.0), (10, 5.0)])


def test_text_sparkline():
    s = text_sparkline([(i, float(i)) for i in range(8)], width=8)
    assert len(s) == 8
    assert s[0] == "▁" and s[-1] == "█"
    assert text_sparkline([]) == "(no samples)"


# -- full renders ----------------------------------------------------------

def test_html_dashboard_is_self_contained(tmp_path, session):
    html = render_dashboard_html(session, title="unit run",
                                 notes=("a note",))
    assert html.lstrip().startswith("<!DOCTYPE html>")
    assert "unit run" in html and "a note" in html
    assert "<svg" in html and "<style>" in html
    # self-contained: no external scripts, stylesheets, or images
    for needle in ("http://", "https://", "<script src", "<link", "<img"):
        assert needle not in html
    # the SLO table shows the induced breach and the healthy objective
    assert "tight" in html and "p99" in html
    path = write_dashboard(str(tmp_path / "dash.html"), session,
                           title="unit run", notes=("a note",))
    with open(path) as f:
        assert f.read() == html
    assert path.endswith("dash.html")


def test_text_dashboard_summarises_series_and_slos(session):
    txt = render_dashboard_text(session, title="unit run")
    assert "unit run" in txt
    assert "core.busy" in txt
    assert any(ch in txt for ch in "▁▂▃▄▅▆▇█")
    assert "BREACHED" in txt or "breach" in txt.lower()


def test_html_dashboard_escapes_untrusted_strings():
    """Run labels and series units are caller-supplied; a label like
    ``<script>...`` must render as text, never as markup."""
    with obs.observed(timeseries=True, sample_every=256) as s:
        run_counter_benchmark("mp-server", 4, spec=SPEC)
    ob = s.machines[0]
    ob.label = '<script>alert(1)</script>'
    ob.sampler.register('evil', lambda: 1.0, kind="gauge",
                        unit='<img src=x>')
    html = render_dashboard_html(s, title="esc")
    assert "<script>" not in html
    assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
    assert "<img" not in html
    assert "&lt;img src=x&gt;" in html


# -- mesh panels -----------------------------------------------------------

@pytest.fixture(scope="module")
def spatial_session():
    with obs.observed(timeseries=True, sample_every=256, spatial=True) as s:
        run_counter_benchmark("mp-server", 6, spec=SPEC)
    return s


def test_mesh_svg_draws_tiles_and_links(spatial_session):
    s = spatial_session.machines[0].spatial.summary()
    svg = mesh_svg(s)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    mesh = s["mesh"]
    assert svg.count("<rect") == mesh["width"] * mesh["height"]
    assert svg.count("<line") == len(s["links"])
    assert "no NoC traffic" in mesh_svg(None)
    assert "no NoC traffic" in mesh_svg({"tiles": {}})


def test_write_mesh_svg_is_a_standalone_file(tmp_path, spatial_session):
    s = spatial_session.machines[0].spatial.summary()
    path = write_mesh_svg(str(tmp_path / "sub" / "mesh.svg"), s,
                          title='<fig3a>')
    doc = (tmp_path / "sub" / "mesh.svg").read_text()
    assert path.endswith("mesh.svg")
    assert doc.startswith('<?xml version="1.0"')
    assert 'xmlns="http://www.w3.org/2000/svg"' in doc
    assert "<title>&lt;fig3a&gt;</title>" in doc


def test_dashboards_include_the_mesh_panel(spatial_session):
    html = render_dashboard_html(spatial_session, title="mesh run")
    assert "<h2>mesh</h2>" in html
    assert "red border = sender backpressure" in html
    # per-link rings stay out of the series grid (they render as the mesh)
    assert "spatial.link." not in html
    txt = render_dashboard_text(spatial_session, title="mesh run")
    assert "6x6 mesh" in txt
    assert "spatial.link." not in txt


# -- diff pages ------------------------------------------------------------

def test_render_diff_html_structure_and_escaping():
    from repro.analysis.diff import diff_records, record_from_bench

    doc = {"figure": "f", "config_fingerprint": "x", "full": False,
           "series": {"<s>": [{"x": 1, "ops": 100,
                               "throughput_mops": 10.0}]}}
    doc2 = json.loads(json.dumps(doc))
    doc2["series"]["<s>"][0]["throughput_mops"] = 4.0
    d = diff_records(record_from_bench(doc, label='<a&b>'),
                     record_from_bench(doc2, label="b"),
                     gate=("throughput_mops",))
    page = render_diff_html(d, title="diff <t>")
    assert page.lstrip().startswith("<!DOCTYPE html>")
    assert "&lt;a&amp;b&gt;" in page and "<a&b>" not in page
    assert "&lt;s&gt;" in page and "<s>" not in page
    assert "diff &lt;t&gt;" in page
    assert "verdict: regressed" in page
    assert "gate FAIL" in page
    for needle in ("http://", "https://", "<script", "<link", "<img"):
        assert needle not in page


# -- the report spec of the runner (``run --obs report``) ------------------

def test_report_cli_writes_dashboard(tmp_path, monkeypatch, capsys):
    import repro.experiments.registry as registry
    from repro.__main__ import main

    monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_experiment)
    out = str(tmp_path / "report")
    assert main(["run", "tiny", "--obs", "report", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "tiny shootout" in captured
    html = (tmp_path / "report" / "tiny-dashboard.html").read_text()
    assert "<svg" in html and "stub experiment for CLI tests" in html


def test_report_cli_rejects_unknown_experiment(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "no-such-exp", "--obs", "report"])
    assert exc.value.code == 2
    assert "no-such-exp" in capsys.readouterr().err


def test_report_spec_turns_on_every_layer(tmp_path, monkeypatch):
    """``--obs report`` is time series + the experiment's default SLOs +
    the flight recorder (bundles under the output directory) + hop
    attribution, in one session."""
    import repro.experiments.registry as registry
    from repro.__main__ import main

    seen = {}
    real_observed = obs.observed

    def spy(**options):
        seen.update(options)
        return real_observed(**options)

    monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_experiment)
    monkeypatch.setattr("repro.obs.observed", spy)
    out = str(tmp_path / "r2")
    assert main(["run", "tiny", "--obs", "report", "--out", out]) == 0
    assert seen["timeseries"] is True and seen["flight"] is True
    assert seen["spatial"] is True and seen["spatial_hops"] is True
    assert seen["slos"] == registry.slos_for("tiny")
    assert [s.name for s in seen["slos"]] == ["op-p99"]
    assert seen["incident_dir"] == str(tmp_path / "r2" / "incidents" / "tiny")
    assert "trace" not in seen


def _crashing_sweep(quick=True, jobs=None):
    """Stub registry entry: two swept points, each dumping a bundle."""
    from repro.analysis.series import FigureData
    from repro.experiments.parallel import point, run_sweep
    from repro.faults import CrashThread, FaultPlan

    plan = FaultPlan(seed=1, faults=(
        CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 2_000),))
    pts = [point("mp-server", t, run_counter_benchmark, "mp-server", t,
                 spec=SPEC, fault_plan=plan) for t in (4, 5)]
    fig = FigureData("crashy", "crashy", "threads", "Mops/s")
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="crashy")):
        fig.add_point(p.label, p.x, r)
    return fig


def test_incident_names_do_not_depend_on_what_ran_before(tmp_path,
                                                          monkeypatch):
    """Bundle names come from the sweep point and the machine's ordinal
    in it: an earlier experiment in the same process, or a worker pool,
    leaves them unchanged, and the bundles are byte-identical."""
    from repro.__main__ import main
    import repro.experiments.registry as registry

    monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_experiment)
    monkeypatch.setitem(registry.EXPERIMENTS, "crashy", _crashing_sweep)
    after, alone = tmp_path / "after", tmp_path / "alone"
    assert main(["run", "tiny", "crashy", "--obs", "report", "--jobs", "2",
                 "--out", str(after)]) == 0
    assert main(["run", "crashy", "--obs", "report", "--jobs", "1",
                 "--out", str(alone)]) == 0
    names = sorted(p.name for p in (alone / "incidents" / "crashy").iterdir())
    assert names == sorted(
        p.name for p in (after / "incidents" / "crashy").iterdir())
    assert names[0].startswith("incident-crashy-p000-m0-00-proc-kill-")
    for name in names:
        assert (after / "incidents" / "crashy" / name).read_bytes() == \
            (alone / "incidents" / "crashy" / name).read_bytes()


def test_incident_bundles_land_under_out_dir(tmp_path, monkeypatch):
    from repro.__main__ import main
    from repro.faults import CrashThread, FaultPlan
    import repro.experiments.registry as registry

    def crashy(quick=True, jobs=None):
        from repro.analysis.series import FigureData
        plan = FaultPlan(seed=1, faults=(
            CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 2_000),))
        fig = FigureData("crashy", "crashy", "threads", "Mops/s")
        fig.add_point("mp-server", 5.0,
                      run_counter_benchmark("mp-server", 5, spec=SPEC,
                                            fault_plan=plan))
        return fig

    monkeypatch.setitem(registry.EXPERIMENTS, "crashy", crashy)
    out = tmp_path / "r3"
    assert main(["run", "crashy", "--obs", "report", "--out", str(out)]) == 0
    bundles = list((out / "incidents" / "crashy").glob("incident-*.json"))
    assert bundles
    with open(bundles[0]) as f:
        assert json.load(f)["format"] == 1
