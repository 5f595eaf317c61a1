"""Per-experiment profile reports: terminal tables and standalone HTML.

:func:`build_profile` folds one experiment's span capture through the
attribution pass (:mod:`repro.telemetry.profile`) and the utilization
gauges (:mod:`repro.telemetry.gauges`) into a single
:class:`ExperimentProfile`; :func:`render_text` renders it for the
``profile.txt`` of ``repro-experiments --observe DIR`` and
:func:`render_html` writes its ``dashboard.html`` — a single
self-contained file (inline CSS, no external assets) that CI can upload
as an artifact.
"""

from __future__ import annotations

import dataclasses
import html
import typing

from repro.sim.stats import Histogram
from repro.telemetry import gauges as gauges_mod
from repro.telemetry import profile as profile_mod
from repro.telemetry.tracer import Span


@dataclasses.dataclass
class ExperimentProfile:
    """Everything the dashboard shows for one experiment."""

    name: str
    window_ns: float
    attributions: typing.List[profile_mod.RequestAttribution]
    summary: profile_mod.AttributionSummary
    utilization: typing.List[gauges_mod.TrackUtilization]
    littles: gauges_mod.LittlesLawCheck | None
    invariant_problems: typing.List[str]
    latency_quantiles: typing.Dict[str, float] = \
        dataclasses.field(default_factory=dict)

    @property
    def hidden_fraction(self) -> float:
        """Interleave-hidden time as a share of summed latency (Fig 12)."""
        if self.summary.total_latency_ns <= 0:
            return 0.0
        return (self.summary.overlap_total_ns
                / self.summary.total_latency_ns)


def build_profile(name: str, spans: typing.Sequence[Span],
                  overlap_total_ns: float | None = None
                  ) -> ExperimentProfile:
    """Attribute, gauge, and invariant-check one experiment's capture."""
    attributions = profile_mod.attribute_requests(spans)
    summary = profile_mod.summarize(attributions)
    window = gauges_mod.capture_window(spans)
    latencies = Histogram("profile.latency")
    for attribution in attributions:
        latencies.add(attribution.latency_ns)
    return ExperimentProfile(
        name=name,
        window_ns=window[1] - window[0],
        attributions=attributions,
        summary=summary,
        utilization=gauges_mod.utilization_table(spans, window),
        littles=gauges_mod.littles_law(spans),
        invariant_problems=profile_mod.verify_attribution(
            attributions, overlap_total_ns),
        latency_quantiles=latencies.quantiles(),
    )


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.3f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.3f} us"
    return f"{value:.1f} ns"


def render_text(profile: ExperimentProfile,
                max_tracks: int = 12) -> str:
    """Terminal rendering of one experiment profile."""
    count = profile.summary.request_count
    mean_latency = (_fmt_ns(profile.summary.total_latency_ns / count)
                    if count else "-")
    lines = [f"profile: {profile.name}",
             f"  window {_fmt_ns(profile.window_ns)}, {count} requests, "
             f"mean latency {mean_latency}"]
    if profile.latency_quantiles:
        tail = "  ".join(
            f"{label} {_fmt_ns(value)}"
            for label, value in profile.latency_quantiles.items())
        lines.append(f"  latency quantiles: {tail}")
    lines.append("  latency attribution (mean per request / share of "
                 "end-to-end):")
    means = profile.summary.segment_means()
    fractions = profile.summary.segment_fractions()
    for segment in profile_mod.SEGMENTS:
        mean = means.get(segment, 0.0)
        if mean == 0.0:
            continue
        tag = " (hidden by interleaving)" \
            if segment == "interleave_hidden" else ""
        lines.append(f"    {segment:<18} {_fmt_ns(mean):>12}  "
                     f"{fractions.get(segment, 0.0):6.1%}{tag}")
    if profile.utilization:
        lines.append("  busiest tracks:")
        for row in profile.utilization[:max_tracks]:
            lines.append(f"    {row.track:<18} {row.utilization:6.1%} "
                         f"busy  ({row.span_count} spans, "
                         f"{_fmt_ns(row.busy_ns)})")
        dropped = len(profile.utilization) - max_tracks
        if dropped > 0:
            lines.append(f"    ... {dropped} more track(s)")
    if profile.littles is not None:
        check = profile.littles
        lines.append(
            f"  little's law: L={check.mean_depth:.4f} vs "
            f"lambda*W={check.predicted_depth:.4f} "
            f"(ratio {check.ratio:.6f}, "
            f"{'consistent' if check.consistent(1e-6) else 'INCONSISTENT'})")
    if profile.invariant_problems:
        lines.append(f"  ATTRIBUTION INVARIANT VIOLATED "
                     f"({len(profile.invariant_problems)} problem(s)):")
        for problem in profile.invariant_problems[:10]:
            lines.append(f"    - {problem}")
    else:
        lines.append("  attribution invariant: holds "
                     f"(overlap credited "
                     f"{_fmt_ns(profile.summary.overlap_total_ns)}, "
                     f"{profile.hidden_fraction:.1%} of latency hidden)")
    return "\n".join(lines)


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { padding: 0.25rem 0.8rem; text-align: right;
         border-bottom: 1px solid #ddd; font-size: 0.9rem; }
th:first-child, td:first-child { text-align: left; }
.bar { display: inline-block; height: 0.7rem; background: #4361ee;
       vertical-align: middle; }
.bar.hidden { background: #2ec4b6; }
.ok { color: #2a9d2a; } .bad { color: #c1121f; font-weight: bold; }
.meta { color: #666; font-size: 0.85rem; }
svg.spark { vertical-align: middle; }
"""


def _segment_rows(profile: ExperimentProfile) -> str:
    means = profile.summary.segment_means()
    fractions = profile.summary.segment_fractions()
    rows = []
    for segment in profile_mod.SEGMENTS:
        mean = means.get(segment, 0.0)
        if mean == 0.0:
            continue
        share = fractions.get(segment, 0.0)
        bar_class = "bar hidden" if segment == "interleave_hidden" \
            else "bar"
        rows.append(
            f"<tr><td>{html.escape(segment)}</td>"
            f"<td>{_fmt_ns(mean)}</td><td>{share:.1%}</td>"
            f"<td style='text-align:left'>"
            f"<span class='{bar_class}' "
            f"style='width:{min(share, 1.0) * 20:.2f}rem'></span>"
            f"</td></tr>")
    return "".join(rows)


def _utilization_rows(profile: ExperimentProfile) -> str:
    rows = []
    for row in profile.utilization:
        rows.append(
            f"<tr><td>{html.escape(row.track)}</td>"
            f"<td>{row.utilization:.1%}</td>"
            f"<td>{_fmt_ns(row.busy_ns)}</td>"
            f"<td>{row.span_count}</td>"
            f"<td style='text-align:left'>"
            f"<span class='bar' "
            f"style='width:{min(row.utilization, 1.0) * 20:.2f}rem'>"
            f"</span></td></tr>")
    return "".join(rows)


def _quantile_meta(profile: ExperimentProfile) -> str:
    if not profile.latency_quantiles:
        return ""
    return " · " + " · ".join(
        f"{html.escape(label)} {_fmt_ns(value)}"
        for label, value in profile.latency_quantiles.items())


def _svg_sparkline(values: typing.Sequence[float],
                   width: int = 240, height: int = 32) -> str:
    """Inline SVG polyline over a series (self-contained, no JS)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / max(1, len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - lo) / span * (height - 4):.1f}"
        for i, v in enumerate(values))
    return (f"<svg width='{width}' height='{height}' class='spark'>"
            f"<polyline points='{points}' fill='none' "
            f"stroke='#4361ee' stroke-width='1.5'/></svg>")


def _timeseries_section(document: typing.Mapping[str, typing.Any]) -> str:
    """Windowed-series sparklines and latency-sketch quantile tables."""
    window_ns = float(document.get("window_ns", 0.0))
    parts = [f"<h2>timeseries</h2><p class='meta'>sampling window "
             f"{_fmt_ns(window_ns)} · schema "
             f"{html.escape(str(document.get('schema', '?')))}</p>"]
    series = document.get("series", {})
    if series:
        rows = []
        for path in sorted(series):
            values = [float(v) for v in series[path].get("v", [])]
            stat = (f"min {min(values):.3g} · mean "
                    f"{sum(values) / len(values):.3g} · max "
                    f"{max(values):.3g}") if values else "empty"
            rows.append(
                f"<tr><td>{html.escape(path)}</td>"
                f"<td>{len(values)}</td>"
                f"<td style='text-align:left'>{_svg_sparkline(values)}"
                f"</td><td style='text-align:left' class='meta'>{stat}"
                f"</td></tr>")
        parts.append("<table><tr><th>series</th><th>windows</th>"
                     "<th>trend</th><th></th></tr>"
                     + "".join(rows) + "</table>")
    sketches = document.get("sketches", {})
    if sketches:
        rows = []
        for path in sorted(sketches):
            sketch = sketches[path]
            quantiles = sketch.get("quantiles", {})
            cells = "".join(
                f"<td>{_fmt_ns(float(quantiles[label]))}</td>"
                if label in quantiles else "<td>-</td>"
                for label in ("p50", "p95", "p99", "p999"))
            rows.append(
                f"<tr><td>{html.escape(path)}</td>"
                f"<td>{sketch.get('count', 0)}</td>{cells}"
                f"<td>{sketch.get('clamped', 0)}</td></tr>")
        parts.append("<h3>latency sketches</h3>"
                     "<table><tr><th>sketch</th><th>samples</th>"
                     "<th>p50</th><th>p95</th><th>p99</th><th>p999</th>"
                     "<th>clamped</th></tr>"
                     + "".join(rows) + "</table>")
    return "".join(parts)


def _hostprof_section(payload: typing.Mapping[str, typing.Any]) -> str:
    """Host wall-clock buckets from a ``HostProfiler.to_payload()``."""
    buckets = payload.get("buckets", [])
    total = sum(int(entry[1]) for entry in buckets) or 1
    counts = {tuple(raw): int(count)
              for raw, count in payload.get("bucket_counts", [])}
    dispatches = sum(int(v)
                     for v in payload.get("dispatches", {}).values())
    schedules = sum(int(v)
                    for v in payload.get("schedules", {}).values())
    parts = [f"<h2>host profile</h2><p class='meta'>"
             f"{dispatches} dispatches · {schedules} schedules · "
             f"{payload.get('runs', 0)} run(s) · "
             f"{_fmt_ns(float(total))} attributed host time</p>"]
    rows = []
    ranked = sorted(buckets, key=lambda entry: (-int(entry[1]), entry[0]))
    for raw_key, host_ns in ranked[:24]:
        share = int(host_ns) / total
        rows.append(
            f"<tr><td>{html.escape(' / '.join(raw_key))}</td>"
            f"<td>{_fmt_ns(float(host_ns))}</td>"
            f"<td>{share:.1%}</td>"
            f"<td>{counts.get(tuple(raw_key), 0)}</td>"
            f"<td style='text-align:left'>"
            f"<span class='bar' "
            f"style='width:{min(share, 1.0) * 20:.2f}rem'></span>"
            f"</td></tr>")
    parts.append("<table><tr><th>bucket</th><th>host time</th>"
                 "<th>share</th><th>dispatches</th><th></th></tr>"
                 + "".join(rows) + "</table>")
    dropped = len(ranked) - 24
    if dropped > 0:
        parts.append(f"<p class='meta'>... {dropped} more bucket(s)</p>")
    return "".join(parts)


def render_html(profiles: typing.Sequence[ExperimentProfile],
                title: str = "repro experiment profiles",
                timeseries: typing.Optional[
                    typing.Mapping[str, typing.Any]] = None,
                hostprof: typing.Optional[
                    typing.Mapping[str, typing.Any]] = None) -> str:
    """Self-contained HTML dashboard for one or more experiments.

    ``timeseries`` takes an exported timeseries document (the dict
    shape written by :func:`repro.telemetry.timeseries.write_timeseries`)
    and appends a windowed-series + latency-sketch section;
    ``hostprof`` takes a :meth:`HostProfiler.to_payload` dict and
    appends a host wall-clock bucket table.
    """
    sections = []
    for profile in profiles:
        summary = profile.summary
        mean_latency = (summary.total_latency_ns / summary.request_count
                        if summary.request_count else 0.0)
        if profile.invariant_problems:
            problems = "".join(
                f"<li>{html.escape(p)}</li>"
                for p in profile.invariant_problems[:20])
            invariant = (f"<p class='bad'>attribution invariant violated"
                         f"</p><ul>{problems}</ul>")
        else:
            invariant = (f"<p class='ok'>attribution invariant holds — "
                         f"{_fmt_ns(summary.overlap_total_ns)} "
                         f"({profile.hidden_fraction:.1%} of latency) "
                         f"hidden by interleaving</p>")
        littles = ""
        if profile.littles is not None:
            check = profile.littles
            state = ("<span class='ok'>consistent</span>"
                     if check.consistent(1e-6)
                     else "<span class='bad'>INCONSISTENT</span>")
            littles = (f"<p class='meta'>Little's law: "
                       f"L = {check.mean_depth:.4f}, "
                       f"&lambda;&middot;W = {check.predicted_depth:.4f}, "
                       f"ratio {check.ratio:.6f} — {state}</p>")
        sections.append(f"""
<h2>{html.escape(profile.name)}</h2>
<p class='meta'>window {_fmt_ns(profile.window_ns)} ·
{summary.request_count} requests · mean latency
{_fmt_ns(mean_latency)}{_quantile_meta(profile)}</p>
{invariant}
<h3>latency attribution</h3>
<table><tr><th>segment</th><th>mean/request</th><th>share</th>
<th></th></tr>{_segment_rows(profile)}</table>
<h3>track utilization</h3>
<table><tr><th>track</th><th>busy</th><th>busy time</th>
<th>spans</th><th></th></tr>{_utilization_rows(profile)}</table>
{littles}
""")
    if timeseries is not None:
        sections.append(_timeseries_section(timeseries))
    if hostprof is not None:
        sections.append(_hostprof_section(hostprof))
    body = "".join(sections) if sections else "<p>no captures</p>"
    return (f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            f"<h1>{html.escape(title)}</h1>{body}</body></html>\n")
