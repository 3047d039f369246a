"""Per-layer metrics derived from the spans of one traced workload run.

A span is ``[name, parent, start, end, rss_rise_kib, counts]`` as written by
``child.py``; a workload run gives one span list per process.  A metric's
``total_s`` sums the spans of that name that are not nested in another span
of the same name; ``self_s`` sums each span's duration minus the time of its
direct child spans.  Sizes are MiB (2**20 bytes), as ``peak_rss_mb`` is.
"""

from __future__ import annotations

MIB = 2.0 ** 20

# name -> unit; run.py adds cli.result_max_rel_dev and trace.overhead_s
UNITS = {
    "solver.step.calls": "count",
    "solver.step.total_s": "s",
    "solver.step.ns_per_cell_step": "ns",
    "solver.run.self_s": "s",
    "solver.init_from_data.total_s": "s",
    "solver.penalization_sweep.self_s": "s",
    "solver.levels_stored": "count",
    "solver.slab_mb": "MiB",
    "fields.harmonic_v_jet_batch.calls": "count",
    "fields.harmonic_v_jet_batch.nodes": "count",
    "fields.harmonic_v_jet_batch.total_s": "s",
    "fields.BoostedHarmonicMap.jets_at.self_s": "s",
    "fields.GridField.jets_at.calls": "count",
    "fields.GridField.jets_at.nodes": "count",
    "fields.GridField.jets_at.ns_per_node": "ns",
    "fields.GridField.jets_at.first_call_s": "s",
    "fields.GridField.jets_at.rss_rise_mb": "MiB",
    "fields.GridField.levels_touched_ratio": "ratio",
    "fields.GridField.save.total_s": "s",
    "fields.GridField.save.mb_written": "MiB",
    "fields.GridField.save.rss_rise_mb": "MiB",
    "quadrature.energy_balance.calls": "count",
    "quadrature.energy_balance.slab_s": "s",
    "quadrature.energy_balance.analytic_s": "s",
    "quadrature.energy_on_disk.self_s": "s",
    "quadrature.energy_on_disk.nodes": "count",
    "quadrature.flux_on_cone.self_s": "s",
    "quadrature.flux_on_cone.nodes": "count",
    "stress_energy.recover_point_charge.total_s": "s",
    "stress_energy.transformation_check.total_s": "s",
    "stress_energy.comp_identity_check.self_s": "s",
    "manufactured.jets_at.total_s": "s",
    "manufactured.box_at.total_s": "s",
    "cli.command_s": "s",
    "cli.report_write_s": "s",
}


class Trace:
    """The spans of all processes of one run, with parent links resolved."""

    def __init__(self, processes):
        self.name, self.parent, self.dur, self.rss, self.counts = \
            [], [], [], [], []
        self.proc = []
        for k, spans in enumerate(processes):
            base = len(self.name)
            for name, parent, start, end, rss_kib, counts in spans:
                self.name.append(name)
                self.parent.append(base + parent if parent >= 0 else -1)
                self.dur.append(end - start)
                self.rss.append(rss_kib)
                self.counts.append(counts or {})
                self.proc.append(k)
        self.child_s = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.child_s[p] += self.dur[i]

    def select(self, match) -> list[int]:
        return [i for i, n in enumerate(self.name) if match(n)]

    def total_s(self, match) -> float:
        def nested(i):
            p = self.parent[i]
            while p >= 0:
                if match(self.name[p]):
                    return True
                p = self.parent[p]
            return False
        return sum(self.dur[i] for i in self.select(match) if not nested(i))

    def self_s(self, match) -> float:
        return sum(self.dur[i] - self.child_s[i] for i in self.select(match))

    def count(self, idx, key) -> int:
        return sum(self.counts[i].get(key, 0) for i in idx)

    def child_nodes(self, idx) -> int:
        """Evaluation points of the direct children of the given spans."""
        parents = set(idx)
        return sum(c.get("nodes", 0) for c, p in zip(self.counts, self.parent)
                   if p in parents)


def named(*names):
    return lambda n: n in names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes) -> dict:
    """Every metric of ``UNITS`` from the span lists of one run."""
    tr = Trace(processes)
    m = {}

    step = tr.select(named("solver.step"))
    m["solver.step.calls"] = len(step)
    m["solver.step.total_s"] = tr.total_s(named("solver.step"))
    m["solver.step.ns_per_cell_step"] = 1e9 * _ratio(
        m["solver.step.total_s"], tr.count(step, "cells"))
    m["solver.run.self_s"] = tr.self_s(named("solver.run"))
    m["solver.init_from_data.total_s"] = tr.total_s(
        named("solver.init_from_data"))
    m["solver.penalization_sweep.self_s"] = tr.self_s(
        named("solver.penalization_sweep"))
    runs = [tr.counts[i] for i in tr.select(named("solver.run"))]
    m["solver.levels_stored"] = max((c.get("levels", 0) for c in runs),
                                  default=0)
    m["solver.slab_mb"] = max((c.get("bytes", 0) for c in runs),
                              default=0) / MIB

    hv = named("fields.harmonic_v_jet_batch")
    m["fields.harmonic_v_jet_batch.calls"] = len(tr.select(hv))
    m["fields.harmonic_v_jet_batch.nodes"] = tr.count(tr.select(hv), "nodes")
    m["fields.harmonic_v_jet_batch.total_s"] = tr.total_s(hv)
    m["fields.BoostedHarmonicMap.jets_at.self_s"] = tr.self_s(
        named("fields.BoostedHarmonicMap.jets_at"))

    gj = tr.select(named("fields.GridField.jets_at"))
    first = [i for i in gj if tr.counts[i].get("first")]
    later = [i for i in gj if not tr.counts[i].get("first")]
    m["fields.GridField.jets_at.calls"] = len(gj)
    m["fields.GridField.jets_at.nodes"] = tr.count(gj, "nodes")
    m["fields.GridField.jets_at.ns_per_node"] = 1e9 * _ratio(
        sum(tr.dur[i] for i in later), tr.count(later, "nodes"))
    m["fields.GridField.jets_at.first_call_s"] = sum(tr.dur[i] for i in first)
    m["fields.GridField.jets_at.rss_rise_mb"] = \
        sum(tr.rss[i] for i in first) * 1024 / MIB
    touched, levels = {}, {}
    for i in gj:
        c = tr.counts[i]
        if c:
            key = (tr.proc[i], c["field"])
            touched.setdefault(key, set()).update(c["levels_touched"])
            levels[key] = c["nt"]
    m["fields.GridField.levels_touched_ratio"] = _ratio(
        sum(len(s) for s in touched.values()), sum(levels.values()))

    save = tr.select(named("fields.GridField.save"))
    m["fields.GridField.save.total_s"] = tr.total_s(
        named("fields.GridField.save"))
    m["fields.GridField.save.mb_written"] = tr.count(save, "bytes") / MIB
    m["fields.GridField.save.rss_rise_mb"] = \
        sum(tr.rss[i] for i in save) * 1024 / MIB

    eb = tr.select(named("quadrature.energy_balance"))
    m["quadrature.energy_balance.calls"] = len(eb)
    m["quadrature.energy_balance.slab_s"] = sum(
        tr.dur[i] for i in eb if tr.counts[i].get("slab"))
    m["quadrature.energy_balance.analytic_s"] = sum(
        tr.dur[i] for i in eb if not tr.counts[i].get("slab"))
    for fn in ("energy_on_disk", "flux_on_cone"):
        match = named(f"quadrature.{fn}")
        m[f"quadrature.{fn}.self_s"] = tr.self_s(match)
        m[f"quadrature.{fn}.nodes"] = tr.child_nodes(tr.select(match))

    m["stress_energy.recover_point_charge.total_s"] = tr.total_s(
        named("stress_energy.recover_point_charge"))
    m["stress_energy.transformation_check.total_s"] = tr.total_s(
        named("stress_energy.transformation_check"))
    m["stress_energy.comp_identity_check.self_s"] = tr.self_s(
        named("stress_energy.comp_identity_check"))
    for meth in ("jets_at", "box_at"):
        m[f"manufactured.{meth}.total_s"] = tr.total_s(
            lambda n: n.startswith("manufactured.") and n.endswith(f".{meth}"))

    m["cli.command_s"] = tr.total_s(lambda n: n.startswith("cli.cmd_"))
    m["cli.report_write_s"] = tr.total_s(named(
        "cli.ExperimentReport.write", "cli._write_csv",
        "solver.EnergyLedger.to_csv"))
    return m
