"""Per-figure experiment drivers — one function per paper artifact.

Each ``run_figN`` regenerates the corresponding figure of §7 as a
:class:`~repro.bench.harness.FigureResult` whose series carry exactly
the quantities the paper plots (tuples transmitted, skyline counts,
progressiveness timelines, update response times).  Absolute numbers
differ from the paper — different hardware, different scale — but each
driver's docstring states the *shape* the paper reports, and
``EXPERIMENTS.md`` records how the measured shapes compare.

All drivers accept a :class:`Scale` so the same code serves the quick
CI configuration, the EXPERIMENTS.md configuration, and the paper's
full-size grid.
"""

from __future__ import annotations

import random
import time


from ..core.cardinality import (
    expected_feedback_tuples,
    expected_local_skyline_tuples,
    expected_skyline_cardinality,
)
from ..core.tuples import UncertainTuple
from ..data.workload import Workload, make_nyse_workload, make_synthetic_workload
from ..distributed.edsud import EDSUDConfig
from ..distributed.query import build_sites, distributed_skyline
from ..distributed.site import SiteConfig
from ..distributed.updates import IncrementalMaintainer, NaiveMaintainer
from .harness import FigureResult, Scale, Series, average_runs, measure

__all__ = [
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_cost_model",
    "run_ablation_edsud",
    "run_ablation_site",
    "run_ablation_partition",
    "run_topk_curve",
    "run_ablation_synopsis",
    "ALL_FIGURES",
]

_SYNTH_DISTRIBUTIONS = ("independent", "anticorrelated")


def _synthetic_factory(
    distribution: str, n: int, d: int, sites: int, **kwargs
):
    def make(seed: int) -> Workload:
        return make_synthetic_workload(
            distribution=distribution, n=n, d=d, sites=sites, seed=seed, **kwargs
        )

    return make


def run_fig8(scale: Scale) -> FigureResult:
    """Fig. 8 — bandwidth vs dimensionality d (panels a/b: indep/anticorr).

    Paper shape: both algorithms grow with d (bigger skylines); e-DSUD
    stays well below DSUD; anticorrelated costs more than independent;
    e-DSUD lands within a small factor (~3×) of the Ceiling
    ``|SKY(H)| × m``.
    """
    fig = FigureResult(
        figure="fig8",
        title="Bandwidth vs dimensionality d",
        x_label="d",
        y_label="tuples transmitted",
    )
    for panel, distribution in zip(("a", "b"), _SYNTH_DISTRIBUTIONS):
        series = {
            name: Series(name, [], []) for name in ("DSUD", "e-DSUD", "Ceiling")
        }
        for d in scale.dim_values:
            totals = average_runs(
                _synthetic_factory(
                    distribution, scale.cardinality, d, scale.default_sites
                ),
                scale.default_threshold,
                algorithms=("dsud", "edsud"),
                repeats=scale.repeats,
            )
            series["DSUD"].append(d, totals["dsud"]["bandwidth"])
            series["e-DSUD"].append(d, totals["edsud"]["bandwidth"])
            series["Ceiling"].append(d, totals["edsud"]["ceiling"])
        fig.panels[f"{panel} ({distribution})"] = list(series.values())
    return fig


def run_fig9(scale: Scale) -> FigureResult:
    """Fig. 9 — bandwidth vs number of local sites m.

    Paper shape: both algorithms grow roughly linearly with m (each
    feedback costs m−1 deliveries); e-DSUD below DSUD throughout.
    """
    fig = FigureResult(
        figure="fig9",
        title="Bandwidth vs number of local sites m",
        x_label="m",
        y_label="tuples transmitted",
    )
    for panel, distribution in zip(("a", "b"), _SYNTH_DISTRIBUTIONS):
        series = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
        for m in scale.site_values:
            totals = average_runs(
                _synthetic_factory(
                    distribution, scale.cardinality, scale.default_dim, m
                ),
                scale.default_threshold,
                algorithms=("dsud", "edsud"),
                repeats=scale.repeats,
            )
            series["DSUD"].append(m, totals["dsud"]["bandwidth"])
            series["e-DSUD"].append(m, totals["edsud"]["bandwidth"])
        fig.panels[f"{panel} ({distribution})"] = list(series.values())
    return fig


def run_fig10(scale: Scale) -> FigureResult:
    """Fig. 10 — bandwidth vs probability threshold q.

    Paper shape: bandwidth falls steeply as q rises (fewer qualified
    tuples, stronger pruning); e-DSUD below DSUD at every q.
    """
    fig = FigureResult(
        figure="fig10",
        title="Bandwidth vs threshold q",
        x_label="q",
        y_label="tuples transmitted",
    )
    for panel, distribution in zip(("a", "b"), _SYNTH_DISTRIBUTIONS):
        series = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
        for q in scale.threshold_values:
            totals = average_runs(
                _synthetic_factory(
                    distribution,
                    scale.cardinality,
                    scale.default_dim,
                    scale.default_sites,
                ),
                q,
                algorithms=("dsud", "edsud"),
                repeats=scale.repeats,
            )
            series["DSUD"].append(q, totals["dsud"]["bandwidth"])
            series["e-DSUD"].append(q, totals["edsud"]["bandwidth"])
        fig.panels[f"{panel} ({distribution})"] = list(series.values())
    return fig


def run_fig11(scale: Scale) -> FigureResult:
    """Fig. 11 — the NYSE study (four panels).

    (a) bandwidth vs m and (b) bandwidth vs q with uniform
    probabilities mirror the synthetic trends; (c)/(d) sweep the
    Gaussian probability mean μ: bandwidth and |SKY(H)| rise towards
    μ = 0.5 and fall beyond it (dominated low-probability tuples fail
    q on one side, confident tuples qualify outright on the other),
    and (d) shows both algorithms returning identical counts.
    """
    fig = FigureResult(
        figure="fig11",
        title="NYSE: bandwidth vs m, q, and Gaussian mean",
        x_label="m / q / mu",
        y_label="tuples transmitted (a–c), skyline count (d)",
    )

    def nyse_factory(sites: int, kind: str = "uniform", mean: float = 0.5):
        def make(seed: int) -> Workload:
            return make_nyse_workload(
                n=scale.cardinality,
                sites=sites,
                probability_kind=kind,
                probability_mean=mean,
                seed=seed,
            )

        return make

    panel_a = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
    for m in scale.site_values:
        totals = average_runs(
            nyse_factory(m),
            scale.default_threshold,
            algorithms=("dsud", "edsud"),
            repeats=scale.repeats,
        )
        panel_a["DSUD"].append(m, totals["dsud"]["bandwidth"])
        panel_a["e-DSUD"].append(m, totals["edsud"]["bandwidth"])
    fig.panels["a (bandwidth vs m, uniform)"] = list(panel_a.values())

    panel_b = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
    for q in scale.threshold_values:
        totals = average_runs(
            nyse_factory(scale.default_sites),
            q,
            algorithms=("dsud", "edsud"),
            repeats=scale.repeats,
        )
        panel_b["DSUD"].append(q, totals["dsud"]["bandwidth"])
        panel_b["e-DSUD"].append(q, totals["edsud"]["bandwidth"])
    fig.panels["b (bandwidth vs q, uniform)"] = list(panel_b.values())

    panel_c = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
    panel_d = {name: Series(name, [], []) for name in ("DSUD", "e-DSUD")}
    for mu in scale.gaussian_means:
        totals = average_runs(
            nyse_factory(scale.default_sites, kind="gaussian", mean=mu),
            scale.default_threshold,
            algorithms=("dsud", "edsud"),
            repeats=scale.repeats,
        )
        panel_c["DSUD"].append(mu, totals["dsud"]["bandwidth"])
        panel_c["e-DSUD"].append(mu, totals["edsud"]["bandwidth"])
        panel_d["DSUD"].append(mu, totals["dsud"]["results"])
        panel_d["e-DSUD"].append(mu, totals["edsud"]["results"])
    fig.panels["c (bandwidth vs gaussian mean)"] = list(panel_c.values())
    fig.panels["d (skyline count vs gaussian mean)"] = list(panel_d.values())
    return fig


def _progress_panels(
    fig: FigureResult, label: str, workload: Workload, threshold: float
) -> None:
    """Fill one distribution's bandwidth- and CPU-progress panels."""
    bandwidth = []
    cpu = []
    for algo, name in (("dsud", "DSUD"), ("edsud", "e-DSUD")):
        result = measure(workload, threshold, algo)
        events = result.progress.events
        bandwidth.append(
            Series(name, [e.result_index for e in events], [e.tuples_transmitted for e in events])
        )
        cpu.append(
            Series(name, [e.result_index for e in events], [e.cpu_seconds for e in events])
        )
    fig.panels[f"bandwidth vs results ({label})"] = bandwidth
    fig.panels[f"cpu vs results ({label})"] = cpu


def run_fig12(scale: Scale) -> FigureResult:
    """Fig. 12 — progressiveness on synthetic data.

    Paper shape: both algorithms report their first result almost
    immediately; cumulative bandwidth grows roughly linearly with the
    results reported, with e-DSUD's line flatter than DSUD's (fewer
    tuples per additional result) on both distributions.
    """
    fig = FigureResult(
        figure="fig12",
        title="Progressiveness on synthetic data",
        x_label="results reported",
        y_label="cumulative tuples / cpu seconds",
    )
    for distribution in _SYNTH_DISTRIBUTIONS:
        workload = make_synthetic_workload(
            distribution=distribution,
            n=scale.cardinality,
            d=scale.default_dim,
            sites=scale.default_sites,
            seed=1000,
        )
        _progress_panels(fig, distribution, workload, scale.default_threshold)
    return fig


def run_fig13(scale: Scale) -> FigureResult:
    """Fig. 13 — progressiveness on NYSE (uniform and Gaussian probabilities).

    Paper shape: same qualitative behaviour as Fig. 12; the Gaussian
    assignment consumes less bandwidth and CPU than uniform because
    high-probability central tuples prune more per broadcast.
    """
    fig = FigureResult(
        figure="fig13",
        title="Progressiveness on NYSE",
        x_label="results reported",
        y_label="cumulative tuples / cpu seconds",
    )
    for kind in ("uniform", "gaussian"):
        workload = make_nyse_workload(
            n=scale.cardinality,
            sites=scale.default_sites,
            probability_kind=kind,
            probability_mean=0.5,
            seed=1000,
        )
        _progress_panels(fig, kind, workload, scale.default_threshold)
    return fig


def run_fig14(scale: Scale) -> FigureResult:
    """Fig. 14 — update maintenance response time vs update rate.

    Paper shape: both strategies are stable as the update rate grows;
    the incremental strategy responds much faster than naive
    recomputation, and anticorrelated data (more skyline members to
    maintain) costs more than independent.
    """
    fig = FigureResult(
        figure="fig14",
        title="Update response time vs update count",
        x_label="updates applied",
        y_label="response seconds (total for batch)",
    )
    for panel, distribution in zip(("a", "b"), _SYNTH_DISTRIBUTIONS):
        incremental = Series("Incremental", [], [])
        naive = Series("Naive", [], [])
        for count in scale.update_counts:
            workload = make_synthetic_workload(
                distribution=distribution,
                n=scale.cardinality,
                d=scale.default_dim,
                sites=scale.default_sites,
                seed=2000,
            )
            updates = _update_script(workload, count, seed=2000 + count)
            inc = IncrementalMaintainer(
                build_sites(workload.partitions, preference=workload.preference),
                scale.default_threshold,
                workload.preference,
            )
            incremental.append(count, _apply_updates(inc, updates))
            nv = NaiveMaintainer(
                build_sites(workload.partitions, preference=workload.preference),
                scale.default_threshold,
                workload.preference,
            )
            naive.append(count, _apply_updates(nv, updates))
        fig.panels[f"{panel} ({distribution})"] = [incremental, naive]
    return fig


def _update_script(workload: Workload, count: int, seed: int):
    """A reproducible mixed insert/delete script against a workload."""
    rng = random.Random(seed)
    dims = workload.dimensionality
    key = 10_000_000
    live = [list(p) for p in workload.partitions]
    script = []
    for _ in range(count):
        site_id = rng.randrange(workload.sites)
        if rng.random() < 0.5 and live[site_id]:
            victim = rng.choice(live[site_id])
            live[site_id].remove(victim)
            script.append(("delete", site_id, victim.key, None))
        else:
            t = UncertainTuple(
                key,
                tuple(rng.random() for _ in range(dims)),
                rng.random() * 0.99 + 0.01,
            )
            key += 1
            live[site_id].append(t)
            script.append(("insert", site_id, t.key, t))
    return script


def _apply_updates(maintainer, script) -> float:
    start = time.perf_counter()
    for op, site_id, key, t in script:
        if op == "insert":
            maintainer.insert(site_id, t)
        else:
            maintainer.delete(site_id, key)
    return time.perf_counter() - start


def run_cost_model(scale: Scale) -> FigureResult:
    """Eqs. 6–8 — the analytical feedback cost comparison of §4.

    Shape: ``N_back = (m−1)·H(d,N)`` exceeds ``N_local =
    (m−1)·H(d,N/m)`` for every m > 1, i.e. indiscriminate feedback is
    costlier than shipping all local skylines — the motivation for
    selective feedback.
    """
    fig = FigureResult(
        figure="eq6-8",
        title="Analytical feedback cost (Eqs. 6-8)",
        x_label="d",
        y_label="expected tuples",
    )
    h = Series("H(d, N)", [], [])
    back = Series("N_back", [], [])
    local = Series("N_local", [], [])
    m = scale.default_sites
    n = scale.cardinality
    for d in scale.dim_values:
        h.append(d, expected_skyline_cardinality(d, n))
        back.append(d, expected_feedback_tuples(d, n, m))
        local.append(d, expected_local_skyline_tuples(d, n, m))
    fig.panels[f"m={m}, N={n}"] = [h, back, local]
    return fig


def run_ablation_edsud(scale: Scale) -> FigureResult:
    """Ablation — which e-DSUD ingredient buys which share of the win.

    Compares full e-DSUD, no-server-expunge (the §5.3 example mode),
    no-eager-bound-refresh, the beyond-paper probe-factor reuse, and
    DSUD as the anchor, on bandwidth.
    """
    fig = FigureResult(
        figure="ablation-edsud",
        title="e-DSUD design ablation (bandwidth)",
        x_label="variant",
        y_label="tuples transmitted",
    )
    variants = {
        "DSUD": ("dsud", None),
        "e-DSUD (paper)": ("edsud", EDSUDConfig()),
        "e-DSUD no-expunge": ("edsud", EDSUDConfig(server_expunge=False)),
        "e-DSUD lazy-bounds": ("edsud", EDSUDConfig(eager_bound_refresh=False)),
        "e-DSUD reuse-factors": ("edsud", EDSUDConfig(reuse_probe_factors=True)),
    }
    for distribution in _SYNTH_DISTRIBUTIONS:
        series = Series(distribution, [], [])
        for label, (algo, config) in variants.items():
            total = 0.0
            for r in range(scale.repeats):
                workload = make_synthetic_workload(
                    distribution=distribution,
                    n=scale.cardinality,
                    d=scale.default_dim,
                    sites=scale.default_sites,
                    seed=3000 + r,
                )
                result = distributed_skyline(
                    workload.partitions,
                    scale.default_threshold,
                    algorithm=algo,
                    preference=workload.preference,
                    edsud_config=config,
                )
                total += result.bandwidth
            series.append(label, total / scale.repeats)
        fig.panels[distribution] = [series]
    return fig


def run_ablation_site(scale: Scale) -> FigureResult:
    """Ablation — site-side switches: feedback pruning and the PR-tree
    product aggregate.

    Disabling Local-Pruning shows its bandwidth contribution;
    disabling the stored non-occurrence product shows the §6.3 probe's
    extra node accesses (CPU-side, bandwidth unchanged).
    """
    fig = FigureResult(
        figure="ablation-site",
        title="Site-side ablations",
        x_label="variant",
        y_label="tuples transmitted / seconds",
    )
    configs = {
        "full": SiteConfig(),
        "no-feedback-pruning": SiteConfig(feedback_pruning=False),
        "no-product-aggregate": SiteConfig(store_products=False),
        "no-index": SiteConfig(kernel="columnar"),
    }
    bandwidth = Series("bandwidth", [], [])
    seconds = Series("seconds", [], [])
    for label, config in configs.items():
        workload = make_synthetic_workload(
            n=scale.cardinality,
            d=scale.default_dim,
            sites=scale.default_sites,
            seed=4000,
        )
        start = time.perf_counter()
        result = measure(
            workload, scale.default_threshold, "edsud", site_config=config
        )
        bandwidth.append(label, result.bandwidth)
        seconds.append(label, time.perf_counter() - start)
    fig.panels["e-DSUD, independent"] = [bandwidth, seconds]
    return fig


def run_ablation_partition(scale: Scale) -> FigureResult:
    """Ablation — how the placement of tuples over sites moves bandwidth.

    The paper fixes uniform random placement; this sweep contrasts it
    with round-robin (equivalent in distribution), range partitioning
    (maximally skewed: one site owns the preferred corner), and
    angle-based partitioning (every wedge holds skyline members —
    Vlachou et al., the paper's ref. [21]).  Answers are identical by
    construction; only the bandwidth moves.
    """
    import random as _random

    from ..data.partition import (
        partition_angle,
        partition_range,
        partition_round_robin,
        partition_uniform,
    )

    fig = FigureResult(
        figure="ablation-partition",
        title="Partitioning-scheme ablation (bandwidth, e-DSUD)",
        x_label="scheme",
        y_label="tuples transmitted",
    )
    schemes = {
        "uniform": lambda ts, m, seed: partition_uniform(
            ts, m, rng=_random.Random(seed)
        ),
        "round-robin": lambda ts, m, seed: partition_round_robin(ts, m),
        "range": lambda ts, m, seed: partition_range(ts, m),
        "angle": lambda ts, m, seed: partition_angle(ts, m),
    }
    for distribution in _SYNTH_DISTRIBUTIONS:
        series = Series(distribution, [], [])
        for label, scheme in schemes.items():
            total = 0.0
            for r in range(scale.repeats):
                workload = make_synthetic_workload(
                    distribution=distribution,
                    n=scale.cardinality,
                    d=scale.default_dim,
                    sites=scale.default_sites,
                    seed=5000 + r,
                )
                partitions = scheme(
                    workload.global_database, scale.default_sites, 5000 + r
                )
                result = distributed_skyline(
                    partitions, scale.default_threshold, algorithm="edsud"
                )
                total += result.bandwidth
            series.append(label, total / scale.repeats)
        fig.panels[distribution] = [series]
    return fig


def run_topk_curve(scale: Scale) -> FigureResult:
    """Extension — bandwidth of the top-k early stop vs k.

    Shape: cost grows with k and meets the full query's bill once k
    reaches |SKY(H)|; small k costs a small fraction (progressiveness
    made actionable).
    """
    fig = FigureResult(
        figure="topk",
        title="Top-k early termination (bandwidth vs k, e-DSUD)",
        x_label="k",
        y_label="tuples transmitted",
    )
    for distribution in _SYNTH_DISTRIBUTIONS:
        series = Series(distribution, [], [])
        workload = make_synthetic_workload(
            distribution=distribution,
            n=scale.cardinality,
            d=scale.default_dim,
            sites=scale.default_sites,
            seed=6000,
        )
        full = distributed_skyline(
            workload.partitions, scale.default_threshold, algorithm="edsud"
        )
        ks = sorted({1, 2, 5, 10, max(1, full.result_count // 2), full.result_count})
        for k in ks:
            result = distributed_skyline(
                workload.partitions,
                scale.default_threshold,
                algorithm="edsud",
                limit=k,
            )
            series.append(k, result.bandwidth)
        series.append("full", full.bandwidth)
        fig.panels[distribution] = [series]
    return fig


def run_ablation_synopsis(scale: Scale) -> FigureResult:
    """Ablation — §5.2's rejected synopsis-based feedback, measured.

    Shape the paper predicts: shipping per-site histograms so the
    server can pick feedback by estimated prune count does not pay for
    itself — the synopsis traffic plus heuristic ordering loses to the
    zero-bandwidth Corollary-2 bound.
    """
    from ..distributed.query import build_sites
    from ..distributed.synopsis import SynopsisEDSUD
    from ..distributed.edsud import EDSUD

    fig = FigureResult(
        figure="ablation-synopsis",
        title="Synopsis feedback (rejected §5.2 design) vs e-DSUD",
        x_label="variant",
        y_label="tuples transmitted",
    )
    for distribution in _SYNTH_DISTRIBUTIONS:
        series = Series(distribution, [], [])
        totals = {"e-DSUD": 0.0, "synopsis (total)": 0.0, "synopsis (shipment)": 0.0}
        for r in range(scale.repeats):
            workload = make_synthetic_workload(
                distribution=distribution,
                n=scale.cardinality,
                d=scale.default_dim,
                sites=scale.default_sites,
                seed=7000 + r,
            )
            plain = EDSUD(
                build_sites(workload.partitions), scale.default_threshold
            ).run()
            synopsis = SynopsisEDSUD(
                build_sites(workload.partitions), scale.default_threshold
            ).run()
            totals["e-DSUD"] += plain.bandwidth
            totals["synopsis (total)"] += synopsis.bandwidth
            totals["synopsis (shipment)"] += synopsis.extra["synopsis_tuples"]
        for label, value in totals.items():
            series.append(label, value / scale.repeats)
        fig.panels[distribution] = [series]
    return fig


ALL_FIGURES = {
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "cost-model": run_cost_model,
    "ablation-edsud": run_ablation_edsud,
    "ablation-site": run_ablation_site,
    "ablation-partition": run_ablation_partition,
    "topk": run_topk_curve,
    "ablation-synopsis": run_ablation_synopsis,
}
