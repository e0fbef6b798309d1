"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition so that every measurement
begins from a fresh interpreter: no warmed caches, no garbage from the
previous run, and a ``ru_maxrss`` that belongs to this repetition alone.
The last line of standard output is one JSON object (see :func:`main`).

Timing protocol: the clock starts at the first statement of this file;
``setup_s`` ends when the workload is built and installed, after one
``gc.collect()`` (the collector then stays on, as it is for a user);
``wall_s`` covers the ``run(duration)`` call and nothing else.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import common  # noqa: E402

#: A join with less than this many simulated seconds before the receiver's
#: next leave (or the horizon) is not counted as an operation: the graft
#: plus one packet spacing may legitimately not fit.
MIN_LIFE_S = 2.0


# ----------------------------------------------------------------------
# Operations: one receiver join each
# ----------------------------------------------------------------------
class JoinLedger:
    """Records the first data packet after every observable join.

    Uses the receivers' public ``on_first_packet`` probe, chained in front of
    whatever probe is already there (the workload runner's), so the run pays
    one Python call per *join*, not per packet.  Joins made by a receiver's
    constructor (static receivers at t=0) predate the probe and are checked
    by ``total_bytes`` at the horizon instead.
    """

    def __init__(self) -> None:
        self.first_packet: Dict[Tuple[str, Any], List[float]] = {}

    def watch(self, label: str, handle: Any) -> None:
        times = self.first_packet.setdefault((label, handle.receiver_id), [])
        chained = handle.receiver.on_first_packet

        def probe(now: float) -> None:
            times.append(now)
            if chained is not None:
                chained(now)

        handle.receiver.on_first_packet = probe

    def operations(self, label: str, handle: Any, horizon: float) -> List[Dict[str, Any]]:
        """Every join of ``handle`` as ``{t, life, served, latency_ms}``."""
        trace = handle.receiver.trace
        firsts = self.first_packet.get((label, handle.receiver_id), [])
        joins: List[List[float]] = []
        level = 0
        for t, v in zip(trace.times, trace.values):
            if level == 0 and v > 0:
                joins.append([t, horizon])
            elif level > 0 and v == 0:
                joins[-1][1] = t
            level = v
        ops = []
        for i, (t0, t1) in enumerate(joins):
            latency = None
            if i == 0 and t0 == trace.times[0]:
                served = handle.receiver.total_bytes > 0
            else:
                hit = next((p for p in firsts if t0 <= p <= t1), None)
                served = hit is not None
                if served:
                    latency = (hit - t0) * 1000.0
            ops.append({"t": t0, "life": t1 - t0, "served": served, "latency_ms": latency})
        return ops


# ----------------------------------------------------------------------
# Output checks and deterministic metrics
# ----------------------------------------------------------------------
def collect(built: Any, ledger: JoinLedger, error: Optional[str]) -> Dict[str, Any]:
    """Operations, sanity, deterministic metrics and the ``sim_fingerprint``."""
    import numpy as np
    from repro.experiments.scenario import ScenarioResult
    from repro.workloads import control_bytes

    duration = built.duration
    attempted = failed = 0
    live_s = 0.0
    latencies: List[float] = []
    receivers_fp = []
    for label, sc in built.scenarios:
        for handle in sc.receivers:
            trace = handle.receiver.trace
            receivers_fp.append([label, str(handle.receiver_id),
                                 int(handle.receiver.level), len(trace.times) - 1])
            for op in ledger.operations(label, handle, duration):
                live_s += op["life"]
                if op["life"] < MIN_LIFE_S:
                    continue
                attempted += 1
                if not op["served"]:
                    failed += 1
                elif op["latency_ms"] is not None:
                    latencies.append(op["latency_ms"])

    # The run reaching its horizon and every sanity check are operations
    # too, so a raise or a miss shows in ``failed`` like an unserved join.
    problems: List[str] = []
    for runner in built.runners:
        if runner.peak_live != built.crowd or runner.joins_fired < built.crowd:
            problems.append(
                f"crowd of {built.crowd}: peak_live={runner.peak_live} "
                f"joins_fired={runner.joins_fired}"
            )
    fed = built.fed
    if fed is not None:
        want = duration / fed.cadence
        if fed.rounds_completed != want:
            problems.append(f"rounds {fed.rounds_completed} != {want:g}")
    if error is not None:
        problems.append(f"run raised: {error}")
        # Joins the input still held when the run stopped are never served.
        now = {label: sc.sched.now for label, sc in built.scenarios}
        unfired = sum(1 for label, t in built.joins if t > now[label])
        attempted += unfired
        failed += unfired
    attempted += 1 + len(built.runners) + (fed is not None)
    failed += len(problems)

    events = sum(sc.sched.events_processed for _, sc in built.scenarios)
    drops = sum(sc.network.total_drops() for _, sc in built.scenarios)
    ctrl = float(fed.control_bytes_total()) if fed is not None else float(
        sum(control_bytes(sc) for _, sc in built.scenarios))
    deviation = None
    if error is None:
        devs = [ScenarioResult(sc, sc.sched.now).mean_deviation(duration / 2.0)
                for _, sc in built.scenarios]
        deviation = sum(devs) / len(devs)
    latencies.sort()
    p50, p95 = (float(x) for x in np.percentile(latencies, [50, 95])) if latencies else (0.0, 0.0)
    federation = None
    if fed is not None:
        federation = {
            "rounds": fed.rounds_completed,
            "advice": [
                [name, str(sid), a.ceiling, a.floor, a.receiver_count,
                 repr(a.bottleneck_bps), a.epoch, a.round]
                for name in sorted(fed.shards)
                for sid, a in sorted(fed.shards[name].advice.items(), key=lambda kv: str(kv[0]))
            ],
        }
    fingerprint_input = {
        "events": events, "drops": drops, "control_bytes": ctrl,
        "receivers": receivers_fp, "join_latency_ms": [repr(x) for x in latencies],
        "federation": federation,
    }
    digest = hashlib.sha256(
        json.dumps(fingerprint_input, sort_keys=True).encode()).hexdigest()[:16]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "deterministic": {
            "level_deviation": deviation,
            "ctrl_bytes_per_rx_s": ctrl / live_s if live_s > 0 else None,
            "join_p50_sim_ms": p50,
            "join_p95_sim_ms": p95,
            "join_samples": len(latencies),
            "events": events,
        },
        # Printed per workload so parent and change can be diffed by eye.
        "sim_fingerprint": {
            "sha": digest, "events": events, "drops": drops, "control_bytes": ctrl,
            "receivers": len(receivers_fp),
            "level_sum": sum(r[2] for r in receivers_fp),
            "level_changes": sum(r[3] for r in receivers_fp),
            "join_samples": len(latencies),
            "rounds": fed.rounds_completed if fed is not None else 0,
        },
    }


# ----------------------------------------------------------------------
# Per-layer metrics from the traced repetition
# ----------------------------------------------------------------------
def per_layer(built: Any, tracer: Any, profilers: List[Any], deterministic: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (all but the two ``trace.*``
    ratios that need the untraced runs, which ``run.py`` adds)."""
    ms = lambda name, cause=None: tracer.total(name, cause) * 1e3  # noqa: E731
    n = tracer.count
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    self_ms = {layer: s * 1e3 for layer, s in tracer.layer_self().items()}
    scenarios = [sc for _, sc in built.scenarios]
    controllers = [c for sc in scenarios for c in sc.controllers.values()]
    mcasts = [sc.mcast for sc in scenarios]
    fed = built.fed

    events = deterministic["events"]
    sends = n("link.send")
    drops = sum(sc.network.total_drops() for sc in scenarios)
    builds = sum(m.builds for m in mcasts)
    # A join is the MulticastManager.join call plus the deferred apply it
    # scheduled (cause), which is where the tree is rebuilt.
    join_ms = ms("multicast.join") + ms("multicast.cb", "multicast.join")
    leave_ms = ms("multicast.leave") + ms("multicast.cb", "multicast.leave")
    ticks = n("control.cb.ControllerAgent")
    reports = sum(c.reports_received for c in controllers)
    updates = n("core.update")
    out = {
        "sched.self_ms": self_ms["sched"],
        "sched.events": events,
        "sched.us_per_event": ratio(self_ms["sched"] * 1e3, events),
        "link.self_ms": self_ms["link"],
        "link.sends": sends,
        "link.us_per_send": ratio(self_ms["link"] * 1e3, sends),
        "link.drops": drops,
        "link.drop_frac": ratio(drops, sends),
        "node.self_ms": self_ms["node"],
        "node.receives": n("node.receive"),
        "node.spt_queries": n("node.spt"),
        "node.spt_ms": ms("node.spt"),
        "media.self_ms": self_ms["media"],
        "media.pkts_emitted": sum(
            s.packets_sent for sc in scenarios for src in sc.sources.values()
            for s in src.senders),
        "media.pkts_delivered": sum(
            h.receiver.total_bytes // h.receiver.packet_size
            for sc in scenarios for h in sc.receivers),
        "multicast.self_ms": self_ms["multicast"],
        "multicast.join_ms": join_ms,
        "multicast.leave_ms": leave_ms,
        "multicast.repair_ms": ms("multicast.repair"),
        "multicast.build_ms": ms("multicast.build"),
        "multicast.precompute_ms": ms("multicast.precompute"),
        "multicast.builds": builds,
        "multicast.local_repairs": sum(m.local_repairs for m in mcasts),
        "multicast.rebuild_repairs": sum(m.rebuild_repairs for m in mcasts),
        "multicast.groups_skipped": sum(m.groups_skipped for m in mcasts),
        "multicast.ms_per_join": ratio(join_ms, n("multicast.join")),
        "multicast.spt_queries_per_build": ratio(n("node.spt", "multicast.build"), builds),
        "control.self_ms": self_ms["control"],
        "control.tick_ms": ms("control.cb.ControllerAgent"),
        "control.ticks": ticks,
        "control.ms_per_tick": ratio(ms("control.cb.ControllerAgent"), ticks),
        "control.discovery_ms": ms("control.discovery"),
        "control.guard_ms": ms("control.guard"),
        "control.report_rx_ms": ms("control.port.ControllerAgent"),
        "control.rx_agent_ms": ms("control.cb.ReceiverAgent") + ms("control.port.ReceiverAgent"),
        "control.reports_received": reports,
        "control.suggestions_sent": sum(c.suggestions_sent for c in controllers),
        "control.reports_per_tick": ratio(reports, ticks),
        "core.update_ms": ms("core.update"),
        "core.updates": updates,
        "core.ms_per_update": ratio(ms("core.update"), updates),
        "federation.self_ms": self_ms["federation"],
        "federation.rounds": fed.rounds_completed if fed is not None else 0,
        "federation.ms_per_round": ratio(ms("federation.run"), fed.rounds_completed) if fed is not None else 0.0,
        "federation.shard_run_ms": ms("federation.shard_run"),
        "federation.shard_imbalance": 0.0,
        "federation.exchange_ms": ms("federation.exchange"),
        "federation.barrier_overhead_frac": ratio(
            ms("federation.run") - ms("federation.shard_run"), ms("federation.run")),
        "federation.summary_bytes": sum(
            s.summary_bytes_sent for s in fed.shards.values()) if fed is not None else 0,
        "workloads.self_ms": self_ms["workloads"],
        "workloads.joins_fired": sum(r.joins_fired for r in built.runners),
        "workloads.leaves_fired": sum(r.leaves_fired for r in built.runners),
        "workloads.join_p50_sim_ms": deterministic["join_p50_sim_ms"],
        "workloads.join_p95_sim_ms": deterministic["join_p95_sim_ms"],
        "faults.self_ms": self_ms["faults"],
        "faults.fired": len(built.injector.log) if built.injector is not None else 0,
        "trace.root_ms": ms("bench.run"),
        "trace.unattributed_frac": ratio(self_ms["bench"] + self_ms["other"], ms("bench.run")),
    }
    shard_s = [rec[1] for (name, _cause), rec in tracer.spans.items()
               if name.startswith("federation.shard_run.")]
    if shard_s:
        out["federation.shard_imbalance"] = max(shard_s) / (sum(shard_s) / len(shard_s))
    for stage in range(1, 7):
        out[f"core.stage{stage}_ms"] = sum(
            rec["total_s"] for prof in profilers
            for name, rec in prof.summary(f"toposense.stage{stage}_").items()) * 1e3
    return out


# ----------------------------------------------------------------------
def repetition(workload: str, seed: int, trace: bool, smoke: bool) -> Dict[str, Any]:
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if trace:
        # Before the workload is built: the spec's joins and the plan's
        # faults are scheduled at install time and must be wrapped too.
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        built = WORKLOADS[workload].instantiate(seed, smoke=smoke)
        ledger = JoinLedger()
        for label, sc in built.scenarios:
            for handle in sc.receivers:
                ledger.watch(label, handle)
        profilers = []
        if trace:
            # The six stage timings reuse the program's own profiler hook.
            from repro.obs.profile import Profiler

            for _, sc in built.scenarios:
                for controller in sc.controllers.values():
                    if hasattr(controller.algorithm, "profiler"):
                        controller.algorithm.profiler = Profiler()
                        profilers.append(controller.algorithm.profiler)
        gc.collect()
        setup_s = perf_counter() - _T_START

        error = None
        t0 = perf_counter()
        try:
            if tracer is not None:
                tracer.reset()  # spans of set-up are not part of the books
                tracer.span("bench.run", None, built.run)
            else:
                built.run()
        except Exception as exc:  # counted as failed operations, not a crash
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        wall_s = perf_counter() - t0
    finally:
        if tracer is not None:
            tracing.uninstall(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = collect(built, ledger, error)
    result.update({
        "workload": workload, "seed": seed, "traced": trace,
        "sim_duration_s": built.duration,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
    })
    if tracer is not None:
        layers = per_layer(built, tracer, profilers, result["deterministic"])
        layer_sum = sum(tracer.layer_self().values()) * 1e3
        result["per_layer"] = layers
        result["layer_self_sum_ms"] = layer_sum
        result["spans"] = tracer.table()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    common.use_checkout_src()
    result = repetition(args.workload, args.seed, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
