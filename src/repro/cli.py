"""Command-line interface: ``python -m repro <command>``.

Three commands make the library usable without writing Python:

``generate``
    Produce an uncertain relation (synthetic distributions or the
    NYSE-like trade trace) as CSV/JSONL.

``query``
    Load a relation, partition it over ``m`` simulated sites, run any
    of the four algorithms (optionally top-k, preference, subspace),
    and print the qualified skyline plus the bandwidth bill.

``info``
    Describe a relation file: cardinality, dimensionality, probability
    stats, conventional skyline size, and the H(d, N) estimate.

``serve``
    Load a relation and drive a closed-loop multi-query workload
    through the async serving layer (:mod:`repro.serve`): ``k``
    clients submit a seed-deterministic stochastic query mix, and the
    summary reports latency percentiles, throughput, and per-tenant
    bandwidth spend.

``stream``
    Register a standing query against a seeded synthetic uncertain
    stream (:mod:`repro.stream`) and print the ordered ENTER/EXIT/
    RESCORE deltas each published epoch produces, plus the edge
    pre-filter's suppressed-vs-shipped bill.

``advise``
    Recommend an algorithm from the Eqs. 6-8 cost model.

Figure regeneration lives in its own entry point,
``python -m repro.bench`` (see README).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Sequence

import numpy as np

from .core.dominance import Preference
from .core.cardinality import expected_skyline_cardinality
from .core.skyline import skyline
from .core.tuples import tuples_from_arrays, validate_database
from .data.io import load_tuples, save_tuples
from .data.nyse import attach_uncertainty, generate_nyse_trades
from .data.partition import (
    partition_angle,
    partition_range,
    partition_round_robin,
    partition_uniform,
)
from .data.probabilities import generate_probabilities
from .data.synthetic import DISTRIBUTIONS, generate_values
from .distributed.query import ALGORITHMS, distributed_skyline

__all__ = ["main"]

_PARTITIONERS = {
    "uniform": lambda ts, m, seed: partition_uniform(ts, m, rng=random.Random(seed)),
    "round-robin": lambda ts, m, seed: partition_round_robin(ts, m),
    "range": lambda ts, m, seed: partition_range(ts, m),
    "angle": lambda ts, m, seed: partition_angle(ts, m),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distributed skyline queries over uncertain data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an uncertain relation")
    gen.add_argument("output", help="output file (.csv or .jsonl)")
    gen.add_argument(
        "--distribution",
        choices=sorted(DISTRIBUTIONS) + ["nyse"],
        default="independent",
    )
    gen.add_argument("-n", "--cardinality", type=int, default=10_000)
    gen.add_argument("-d", "--dimensionality", type=int, default=3)
    gen.add_argument(
        "--probabilities", choices=["uniform", "gaussian", "constant"],
        default="uniform",
    )
    gen.add_argument("--mean", type=float, default=0.5, help="gaussian mean")
    gen.add_argument("--std", type=float, default=0.2, help="gaussian std")
    gen.add_argument("--seed", type=int, default=None)

    query = sub.add_parser("query", help="run a distributed skyline query")
    query.add_argument("data", help="relation file (.csv or .jsonl)")
    query.add_argument("-q", "--threshold", type=float, default=0.3)
    query.add_argument(
        "-a", "--algorithm", choices=sorted(ALGORITHMS), default="edsud"
    )
    query.add_argument("-m", "--sites", type=int, default=10)
    query.add_argument(
        "--partition", choices=sorted(_PARTITIONERS), default="uniform"
    )
    query.add_argument(
        "--preference",
        default=None,
        help="comma-separated directions, e.g. 'min,max,min'",
    )
    query.add_argument(
        "--subspace",
        default=None,
        help="comma-separated dimension indices, e.g. '0,2'",
    )
    query.add_argument("-k", "--limit", type=int, default=None, help="top-k")
    query.add_argument("--seed", type=int, default=0, help="partitioning seed")
    query.add_argument(
        "--max-print", type=int, default=20, help="result rows to print"
    )
    query.add_argument(
        "--trace", default=None, metavar="FILE",
        help="dump the full protocol conversation as JSONL",
    )
    query.add_argument(
        "--chaos",
        choices=["crash", "recover", "timeout", "flaky"],
        default=None,
        help="inject a deterministic site fault: permanent crash, "
        "fail-then-recover window, transient timeouts, or flaky-p drops",
    )
    query.add_argument(
        "--chaos-site", type=int, default=0, metavar="I",
        help="site the fault targets (default 0)",
    )
    query.add_argument(
        "--chaos-at", type=int, default=8, metavar="CALL",
        help="per-site RPC index at which the fault starts (default 8)",
    )
    query.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for flaky-p draws and retry jitter",
    )
    query.add_argument(
        "--replication-factor", type=int, default=1, metavar="F",
        help="copies of every partition (default 1 = unreplicated); with "
        "F>=2 a failed primary fails over to a buddy replica and the "
        "answer stays exact instead of degrading to Corollary-1 bounds",
    )

    info = sub.add_parser("info", help="describe a relation file")
    info.add_argument("data", help="relation file (.csv or .jsonl)")

    serve = sub.add_parser(
        "serve", help="drive a multi-query workload through the serving layer"
    )
    serve.add_argument("data", help="relation file (.csv or .jsonl)")
    serve.add_argument("-m", "--sites", type=int, default=4)
    serve.add_argument(
        "--partition", choices=sorted(_PARTITIONERS), default="uniform"
    )
    serve.add_argument(
        "--queries", type=int, default=16,
        help="size of the sampled query mix (default 16)",
    )
    serve.add_argument(
        "--clients", type=int, default=4,
        help="closed-loop clients submitting concurrently (default 4)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="sessions stepped concurrently by the scheduler (default 8)",
    )
    serve.add_argument(
        "--tenants", default="default", metavar="A,B",
        help="comma-separated tenant names the mix draws from",
    )
    serve.add_argument(
        "--budget", type=float, default=None, metavar="TUPLES",
        help="per-tenant bandwidth budget in transmitted tuples "
        "(default: unmetered)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for partitioning and the query mix",
    )

    stream = sub.add_parser(
        "stream",
        help="run a standing query over a synthetic stream, printing deltas",
    )
    stream.add_argument(
        "-q", "--threshold", type=float, default=0.3,
        help="standing query probability threshold (default 0.3)",
    )
    stream.add_argument(
        "--subspace", default=None,
        help="comma-separated dimension indices, e.g. '0,2'",
    )
    stream.add_argument("-k", "--limit", type=int, default=None, help="top-k")
    stream.add_argument("-m", "--sites", type=int, default=3)
    stream.add_argument("-n", "--arrivals", type=int, default=300)
    stream.add_argument("-d", "--dimensionality", type=int, default=3)
    stream.add_argument(
        "--distribution", choices=sorted(DISTRIBUTIONS), default="independent"
    )
    stream.add_argument(
        "--window", choices=["count", "sliding-time", "tumbling-time"],
        default="count",
    )
    stream.add_argument(
        "--window-size", type=float, default=60,
        help="count capacity, or span in seconds for the time kinds",
    )
    stream.add_argument(
        "--epoch-every", type=int, default=25, metavar="N",
        help="publish an epoch every N arrivals (default 25)",
    )
    stream.add_argument(
        "--max-print", type=int, default=40,
        help="delta rows to print (default 40)",
    )
    stream.add_argument("--seed", type=int, default=0)

    advise = sub.add_parser(
        "advise", help="recommend an algorithm from the Eqs. 6-8 cost model"
    )
    advise.add_argument("-n", "--cardinality", type=int, required=True)
    advise.add_argument("-d", "--dimensionality", type=int, required=True)
    advise.add_argument("-m", "--sites", type=int, required=True)
    advise.add_argument("-q", "--threshold", type=float, default=0.3)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.distribution == "nyse":
        trades = generate_nyse_trades(args.cardinality, rng=rng)
        tuples = attach_uncertainty(
            trades, kind=args.probabilities, rng=rng, mean=args.mean, std=args.std
        )
    else:
        values = generate_values(
            args.distribution, args.cardinality, args.dimensionality, rng=rng
        )
        probs = generate_probabilities(
            args.probabilities, args.cardinality, rng=rng,
            mean=args.mean, std=args.std,
        )
        tuples = tuples_from_arrays(values, probs)
    save_tuples(args.output, tuples)
    d = tuples[0].dimensionality if tuples else 0
    print(f"wrote {len(tuples)} tuples (d={d}) to {args.output}")
    return 0


def _parse_preference(args: argparse.Namespace) -> Optional[Preference]:
    directions = None
    subspace = None
    if args.preference:
        directions = Preference.of(args.preference).directions
    if args.subspace:
        subspace = tuple(int(x) for x in args.subspace.split(","))
    if directions is None and subspace is None:
        return None
    return Preference(directions=directions, subspace=subspace)


def _build_chaos(args: argparse.Namespace):
    """Translate the --chaos flags into (FaultSchedule, RetryPolicy)."""
    from .fault.retry import RetryPolicy
    from .fault.schedule import FaultSchedule

    schedule = FaultSchedule(seed=args.chaos_seed)
    site, at = args.chaos_site, args.chaos_at
    if args.chaos == "crash":
        schedule.crash(site, at_call=at)
    elif args.chaos == "recover":
        schedule.crash(site, at_call=at, until_call=at + 8)
    elif args.chaos == "timeout":
        schedule.timeout(site, at_call=at, until_call=at + 3)
    elif args.chaos == "flaky":
        schedule.flaky(site, probability=0.2)
    policy = RetryPolicy(max_attempts=3, base_backoff=0.01, seed=args.chaos_seed)
    return schedule, policy


def _cmd_query(args: argparse.Namespace) -> int:
    tuples = load_tuples(args.data)
    if not tuples:
        print("relation is empty; nothing to query")
        return 0
    preference = _parse_preference(args)
    partitions = _PARTITIONERS[args.partition](tuples, args.sites, args.seed)
    chaos_kwargs = {}
    if args.chaos:
        if args.algorithm not in ("dsud", "edsud"):
            print("--chaos requires a progressive algorithm (dsud/edsud)")
            return 2
        schedule, policy = _build_chaos(args)
        chaos_kwargs = {"fault_schedule": schedule, "retry_policy": policy}
    if args.replication_factor > 1:
        if args.algorithm not in ("dsud", "edsud"):
            print(
                "--replication-factor requires a progressive algorithm "
                "(dsud/edsud)"
            )
            return 2
        if args.trace:
            print("--replication-factor does not compose with --trace")
            return 2
    if args.trace:
        from .distributed.query import ALGORITHMS, build_sites
        from .net.trace import ProtocolTracer, summarize_trace

        tracer = ProtocolTracer()
        sites: Sequence = tracer.wrap(build_sites(partitions, preference=preference))
        coordinator_cls = ALGORITHMS[args.algorithm]
        kwargs = {"limit": args.limit} if args.algorithm in ("dsud", "edsud") else {}
        if chaos_kwargs:
            from .fault.injection import FaultyEndpoint

            sites = [
                FaultyEndpoint(s, chaos_kwargs["fault_schedule"]) for s in sites
            ]
            kwargs["retry_policy"] = chaos_kwargs["retry_policy"]
        result = coordinator_cls(sites, args.threshold, preference, **kwargs).run()
        tracer.save(args.trace)
        summary = summarize_trace(tracer.records)
        print(f"trace: {len(tracer)} RPCs -> {args.trace} "
              f"(pruned {summary['candidates_pruned_at_sites']} at sites)")
    else:
        result = distributed_skyline(
            partitions,
            args.threshold,
            algorithm=args.algorithm,
            preference=preference,
            limit=args.limit,
            replication_factor=args.replication_factor,
            **chaos_kwargs,
        )
    print(result.summary())
    print(
        f"simulated network time: {result.stats.simulated_time:.3f}s over "
        f"{result.stats.rounds} rounds"
    )
    if args.chaos:
        stats = result.stats
        print(
            f"chaos: failures={stats.rpc_failures} retries={stats.rpc_retries} "
            f"sites lost={stats.sites_lost} recovered={stats.sites_recovered}"
        )
        if args.replication_factor > 1:
            sync = result.stats.by_kind.get("replica_sync", 0)
            digests = result.stats.by_kind.get("digest", 0)
            print(
                f"replication: factor={args.replication_factor} "
                f"failovers={stats.failovers} failbacks={stats.failbacks} "
                f"sync msgs={sync} digests={digests}"
            )
        coverage = result.coverage
        if coverage is not None and coverage.degraded:
            buffered = set(coverage.buffered)
            print("degraded tuples (Corollary-1 upper bounds):")
            for key, (bound, contributing) in sorted(coverage.degraded.items()):
                note = " [buffered: top-k order unprovable]" if key in buffered else ""
                print(
                    f"  key={key} upper_bound={bound:.4f} "
                    f"contributing_sites={list(contributing)}{note}"
                )
    print()
    shown = list(result.answer)[: args.max_print]
    width = max((len(str(m.key)) for m in shown), default=3)
    print(f"{'key'.rjust(width)}  {'P_g-sky':>8}  values")
    for member in shown:
        values = ", ".join(f"{v:g}" for v in member.tuple.values)
        print(f"{str(member.key).rjust(width)}  {member.probability:>8.4f}  ({values})")
    hidden = result.result_count - len(shown)
    if hidden > 0:
        print(f"... and {hidden} more (raise --max-print)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    tuples = load_tuples(args.data)
    d = validate_database(tuples)
    n = len(tuples)
    print(f"{args.data}: N={n} d={d}")
    if not tuples:
        return 0
    probs = [t.probability for t in tuples]
    print(
        f"probabilities: min={min(probs):.4f} mean={sum(probs) / n:.4f} "
        f"max={max(probs):.4f}"
    )
    sample = tuples if n <= 20_000 else tuples[:20_000]
    conventional = len(skyline(sample))
    suffix = "" if sample is tuples else f" (first {len(sample)} tuples)"
    print(f"conventional skyline: {conventional}{suffix}")
    print(f"H(d, N) estimate: {expected_skyline_cardinality(d, n):.1f}")

    from .core.statistics import (
        dimension_correlations,
        dominance_profile,
        probability_profile,
        skyline_layers,
    )

    profile = probability_profile(sample)
    bar = " ".join(str(c) for c in profile.histogram)
    print(f"probability histogram (10 bins): {bar}")
    corr = dimension_correlations(sample)
    if d > 1:
        off = [corr[i][j] for i in range(d) for j in range(d) if i < j]
        print(f"mean pairwise correlation: {sum(off) / len(off):+.3f}")
    layers = skyline_layers(sample, max_layers=5)
    print(f"skyline layer sizes (first 5): {[len(layer) for layer in layers]}")
    dom = dominance_profile(sample, sample=min(200, n))
    print(
        f"dominators per tuple (sampled): mean={dom['mean_dominators']:.1f} "
        f"max={dom['max_dominators']:.0f} "
        f"undominated={dom['undominated_fraction'] * 100:.1f}%"
    )
    return 0


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty series."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time
    from collections import deque

    from .data.workload import sample_query_mix
    from .serve import (
        AdmissionPolicy,
        AdmissionRejected,
        QuerySession,
        QuerySpec,
        SessionState,
        SkylineService,
    )

    tuples = load_tuples(args.data)
    if not tuples:
        print("relation is empty; nothing to serve")
        return 0
    d = validate_database(tuples)
    tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    if not tenants:
        tenants = ("default",)
    partitions = _PARTITIONERS[args.partition](tuples, args.sites, args.seed)
    draws = sample_query_mix(args.queries, d, seed=args.seed, tenants=tenants)
    specs = [
        QuerySpec(
            threshold=draw.threshold,
            algorithm=draw.algorithm,
            preference=(
                Preference(subspace=draw.subspace) if draw.subspace else None
            ),
            limit=draw.limit,
            batch_size=draw.batch_size,
            tenant=draw.tenant,
        )
        for draw in draws
    ]
    budgets = (
        {tenant: args.budget for tenant in tenants}
        if args.budget is not None
        else None
    )
    policy = AdmissionPolicy(
        max_inflight=args.max_inflight, max_queued=max(1, args.queries)
    )
    sessions: List[QuerySession] = []
    rejected = 0

    async def _drive() -> tuple:
        nonlocal rejected
        work = deque(specs)
        async with SkylineService(
            partitions, policy=policy, tenant_budgets=budgets
        ) as service:
            start = time.perf_counter()

            async def client() -> None:
                nonlocal rejected
                while work:
                    spec = work.popleft()
                    try:
                        session = await service.submit(spec, wait=True)
                    except AdmissionRejected:
                        rejected += 1
                        continue
                    sessions.append(session)
                    while not session.done:
                        await asyncio.sleep(0)

            workers = [
                asyncio.ensure_future(client())
                for _ in range(max(1, args.clients))
            ]
            await asyncio.gather(*workers)
            await service.drain()
            elapsed = time.perf_counter() - start
            spent = dict(service.ledger.spent)
        return elapsed, spent

    elapsed, spent = asyncio.run(_drive())
    finished = [s for s in sessions if s.state is SessionState.FINISHED]
    failed = sum(1 for s in sessions if s.state is SessionState.FAILED)
    aborted = sum(1 for s in sessions if s.state is SessionState.ABORTED)
    latencies = [s.latency for s in finished if s.latency is not None]
    first = [
        s.first_result_latency
        for s in finished
        if s.first_result_latency is not None
    ]
    print(
        f"served {len(sessions)} queries over {args.sites} sites "
        f"(clients={max(1, args.clients)} max-inflight={args.max_inflight} "
        f"seed={args.seed})"
    )
    print(
        f"finished={len(finished)} failed={failed} aborted={aborted} "
        f"rejected={rejected}"
    )
    if elapsed > 0:
        print(f"throughput: {len(finished) / elapsed:.1f} queries/s")
    print(
        f"latency: p50={_percentile(latencies, 0.50) * 1e3:.2f}ms "
        f"p95={_percentile(latencies, 0.95) * 1e3:.2f}ms "
        f"p99={_percentile(latencies, 0.99) * 1e3:.2f}ms "
        f"first-result p50={_percentile(first, 0.50) * 1e3:.2f}ms"
    )
    total = sum(s.transmitted_tuples for s in sessions)
    print(f"bandwidth: {total} tuples transmitted")
    for tenant in sorted(spent):
        cap = f"/{args.budget:g}" if args.budget is not None else ""
        print(f"  tenant {tenant}: {spent[tenant]:g}{cap} tuples")
    return 1 if failed else 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .data.workload import make_synthetic_stream
    from .stream import (
        ContinuousCoordinator,
        StandingQuery,
        StreamSite,
        make_window,
    )

    preference = None
    if args.subspace:
        preference = Preference(
            subspace=tuple(int(x) for x in args.subspace.split(","))
        )
    arrivals = make_synthetic_stream(
        distribution=args.distribution,
        n=args.arrivals,
        d=args.dimensionality,
        sites=args.sites,
        seed=args.seed,
    )
    coordinator = ContinuousCoordinator(
        [
            StreamSite(i, make_window(args.window, args.window_size))
            for i in range(args.sites)
        ]
    )
    query_id = coordinator.register(
        StandingQuery(
            threshold=args.threshold, preference=preference, limit=args.limit
        )
    )
    print(
        f"standing query {query_id}: q={args.threshold} "
        f"window={args.window}({args.window_size:g}) sites={args.sites} "
        f"seed={args.seed}"
    )
    printed = 0
    total_deltas = 0
    for i, arrival in enumerate(arrivals):
        coordinator.ingest(arrival.site_id, arrival.tuple, arrival.stamp)
        if (i + 1) % max(1, args.epoch_every) == 0:
            for delta in coordinator.close_epoch():
                total_deltas += 1
                if printed < args.max_print:
                    print(f"  {delta.describe()}")
                    printed += 1
    if total_deltas > printed:
        print(f"  ... and {total_deltas - printed} more (raise --max-print)")
    standing = coordinator.result(query_id)
    print(
        f"standing result after epoch {coordinator.epoch}: "
        f"{len(standing)} tuples"
    )
    shipped = coordinator.candidates_shipped
    naive = coordinator.arrivals_total
    suppressed = naive - shipped
    ratio = suppressed / naive * 100 if naive else 0.0
    print(
        f"edge pre-filter: shipped {shipped}/{naive} candidate tuples uplink "
        f"(suppressed {suppressed}, {ratio:.1f}%); "
        f"{coordinator.replicas_shipped} replica tuples down; "
        f"{coordinator.stats.tuples_transmitted} total on the books"
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .distributed.advisor import recommend_algorithm

    algorithm, estimates = recommend_algorithm(
        args.cardinality, args.dimensionality, args.sites, args.threshold
    )
    print(
        f"N={args.cardinality} d={args.dimensionality} m={args.sites} "
        f"q={args.threshold}"
    )
    for name, value in estimates.as_dict().items():
        print(f"  expected tuples ({name}): {value:,.0f}")
    print(f"recommendation: {algorithm}")
    if algorithm == "ship-all":
        print(
            "  (the broadcast lower bound |SKY| x m already rivals N; "
            "iterating cannot pay off)"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "query": _cmd_query,
        "info": _cmd_info,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
        "advise": _cmd_advise,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
