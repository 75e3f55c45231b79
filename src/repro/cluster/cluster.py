"""The cluster: N Machine+webserver shards behind a simulated balancer.

``Cluster(shards=4, tool="lazypoline", batched=True).serve(requests=200)``
boots four independent simulated machines across host processes, splits
the wrk request stream across them through a :class:`LoadBalancer`, runs
each shard's webserver leg (direct, ring-batched, or — with
``batched="async"`` — the event-loop worker overlapping in-flight
requests through the asynchronous ring drain), and merges the results
into one cluster-wide report.

With ``sessions=S`` the shards share backend session state: the balancer
classifies every request as a session hit, cold miss or cross-shard
migration (see :mod:`repro.cluster.balancer`), and each miss/migration
costs the serving shard ``session_miss_cycles`` of user-space work,
threaded into the shard as a per-request ``request_extra_cycles``
schedule.  Sticky policies (``consistent_hash``) keep sessions home and
avoid the surcharge; ``round_robin`` pays a migration on nearly every
request — so policies now diverge in throughput and latency, not just in
per-shard counts.  ``sessions=0`` (default) reproduces the sessionless
report byte-for-byte.

Fleet fault tolerance (PR 10) rides the same machinery.  ``chaos=``
takes a :class:`~repro.cluster.chaos.ChaosPlan` (seeded per-shard crash/
hang/degraded/hostile faults, delivered through the shard configs so
fork-Pool and inline runs inject identically); ``deadline_cycles=`` arms
a per-request deadline.  ``serve`` is one round loop: round 0 serves
the planned schedule, then — only when either is active — failed
requests (unserved on a crashed/hung shard, or served past their
deadline) are re-planned over live shards by the health-checked balancer
(:class:`~repro.cluster.health.HealthModel`: up → suspect → down,
per-shard circuit breakers with deterministic cooldown ticks) under a
capped-exponential-backoff :class:`~repro.cluster.health.RetryPolicy` —
all seeded and replayable.  The merged report then gains ``chaos`` and
``availability`` sections (success rate, retries, failovers, p99
including failures).  **With the fault layer inactive the loop stops
after round 0 and the report is byte-identical to the fault-free
cluster**: no ``chaos``/``availability`` keys, and ``measured_seconds``
is the slowest shard's window rather than the cycle-quantised clock
that includes retry windows and backoff.

Determinism is the design constraint, not an afterthought:

* shard ``i`` seeds its machine with ``smp_seed + i`` — shard 0 of a
  1-shard cluster is *byte-identical* to a direct
  ``run_workload("webserver", ...)`` call with the same seed (retry
  round ``r`` re-seeds shard ``i`` with ``smp_seed + shards*r + i``);
* the balancer plans the whole request schedule before any shard boots,
  so there is no cross-process ordering to race on;
* every number in the report is simulated (cycles, simulated seconds,
  instruction counts) — host wall-clock and host scheduling never leak
  into it, so the same ``(shards, smp_seed, policy, chaos)`` always
  produces the same report.

Aggregation: cluster rps is total measured requests over the *slowest*
shard's measured window (shards run concurrently in simulated time; the
cluster is done when the last one is), latency percentiles are computed
over the merged per-request sample set, and per-shard obs summaries are
merged by summing the tracer's aggregate counters (raw event streams
never cross the process boundary).
"""

from __future__ import annotations

import multiprocessing
import os

from repro.cluster.balancer import POLICIES, LoadBalancer
from repro.cluster.chaos import ChaosPlan
from repro.cluster.health import DOWN, HealthModel, RetryPolicy
from repro.cluster.shard import run_shard
from repro.faults.rng import SplitMix64
from repro.workloads.wrk import latency_percentiles


def _merge_obs(per_shard: list[dict]) -> dict:
    """Sum the aggregate counters; keep health per shard (modes don't add).

    Tolerant of partial entries: a shard that died at boot reports
    ``obs`` of ``None`` (its ``health_per_shard`` slot stays ``None``),
    and missing counter keys default to 0 — summaries from older or
    truncated shard rows still merge.
    """
    counts: dict[str, int] = {}
    interposition: dict[str, int] = {}
    totals = {"ring_enters": 0, "ring_entries": 0, "ring_parks": 0,
              "ring_completes": 0, "ring_timeouts": 0, "slowpath_total": 0,
              "rewritten_sites": 0, "dropped_events": 0}
    for shard in per_shard:
        obs = shard.get("obs")
        if obs is None:
            continue
        for kind, n in obs.get("counts", {}).items():
            counts[kind] = counts.get(kind, 0) + n
        for name, n in obs.get("interposition_counts", {}).items():
            interposition[name] = interposition.get(name, 0) + n
        for key in totals:
            totals[key] += obs.get(key, 0)
    return {
        "counts": counts,
        "interposition_counts": interposition,
        **totals,
        "health_per_shard": [
            s["obs"]["health"] if s.get("obs") else None for s in per_shard
        ],
    }


class Cluster:
    """A fleet of webserver shards behind one simulated load balancer."""

    def __init__(
        self,
        shards: int = 2,
        *,
        tool: str | None = None,
        policy: str = "round_robin",
        batched: bool | str = False,
        cores: int = 1,
        smp_seed: int = 0,
        server: str = "nginx",
        file_size: int = 8192,
        sessions: int = 0,
        session_miss_cycles: int = 40_000,
        processes: bool | None = None,
        tool_opts: dict | None = None,
        machine_opts: dict | None = None,
        chaos: ChaosPlan | list | None = None,
        deadline_cycles: int | None = None,
        retry: RetryPolicy | None = None,
        health_opts: dict | None = None,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown balancing policy {policy!r}; "
                f"choose from {', '.join(POLICIES)}"
            )
        self.shards = shards
        self.tool = tool
        self.policy = policy
        self.batched = batched
        self.cores = cores
        self.smp_seed = smp_seed
        self.server = server
        self.file_size = file_size
        self.sessions = sessions
        self.session_miss_cycles = session_miss_cycles
        self.processes = processes
        #: the balancer behind the most recent plan (session stats source)
        self.last_balancer: LoadBalancer | None = None
        self.tool_opts = tool_opts
        self.machine_opts = machine_opts
        # ---------------------------------------------- fault layer (PR 10)
        if chaos is not None and not isinstance(chaos, ChaosPlan):
            chaos = ChaosPlan(list(chaos))
        if chaos is not None:
            for fault in chaos:
                if fault.shard >= shards:
                    raise ValueError(
                        f"fault targets shard {fault.shard} of a "
                        f"{shards}-shard cluster"
                    )
        self.chaos = chaos
        self.deadline_cycles = deadline_cycles
        self.retry = retry
        self.health_opts = health_opts
        self.tracer = tracer
        #: the health model behind the most recent serve
        self.last_health: HealthModel | None = None

    def _fault_active(self) -> bool:
        """Whether serve() may retry past round 0.  A present but empty
        plan (and a configured RetryPolicy alone) keeps the single-round
        serve — and its byte-identical report."""
        return bool(self.chaos is not None and len(self.chaos)) or \
            self.deadline_cycles is not None

    # ------------------------------------------------------------------ plan
    def shard_configs(
        self,
        requests: int,
        *,
        warmup: int = 20,
        connections: int | None = None,
        client_cycles_per_request: int = 0,
    ) -> list[dict]:
        """Plan the run: balance ``requests`` and build one picklable
        config per shard (shard ``i`` gets seed ``smp_seed + i``)."""
        balancer = LoadBalancer(self.shards, self.policy)
        counts = balancer.plan(requests, sessions=self.sessions)
        self.last_balancer = balancer
        if min(counts) < 1:
            raise ValueError(
                f"{requests} requests across {self.shards} shards under "
                f"{self.policy!r} starves a shard (counts={counts}); "
                f"send more traffic"
            )
        miss_extra = (
            balancer.miss_schedule(self.session_miss_cycles)
            if self.sessions
            else None
        )
        opts = {"warmup": warmup, "connections": connections,
                "client_cycles_per_request": client_cycles_per_request}
        return [
            self._shard_config(index, count, 0, opts,
                               None if miss_extra is None else miss_extra[index])
            for index, count in enumerate(counts)
        ]

    def _shard_config(self, shard: int, requests: int, round_: int,
                      opts: dict, extra_cycles: list[int] | None) -> dict:
        """One round's config for ``shard``: a fresh machine seeded
        ``smp_seed + shards*round_ + shard``.

        A scheduled :class:`~repro.cluster.chaos.ShardFault` rides the
        config as ``config["chaos"]`` — the only delivery path, so
        fork-Pool and inline runs inject identically.  Retry rounds
        re-apply only persistent (degraded/hostile) faults: one-shot
        crash/hang faults do not repeat, which is what a half-open probe
        restart means."""
        config = {
            "shard": shard,
            "smp_seed": self.smp_seed + self.shards * round_ + shard,
            "workload": "webserver",
            "server": self.server,
            "tool": self.tool,
            "cores": self.cores,
            "batched": self.batched,
            "file_size": self.file_size,
            "requests": requests,
            **opts,
        }
        if extra_cycles is not None:
            config["request_extra_cycles"] = extra_cycles
        if self.tool_opts is not None:
            config["tool_opts"] = self.tool_opts
        if self.machine_opts is not None:
            config["machine_opts"] = self.machine_opts
        if self.chaos is not None:
            fault = self.chaos.fault_for(shard)
            if fault is not None and (
                    round_ == 0 or fault.kind in ("degraded", "hostile")):
                config["chaos"] = fault.to_config()
        return config

    # ------------------------------------------------------------------ boot
    def _run_shards(self, configs: list[dict]) -> list[dict]:
        use_processes = self.processes
        if use_processes is None:
            use_processes = len(configs) > 1
        if not use_processes:
            entries = [run_shard(c) for c in configs]
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # no fork on this host: results are identical
                ctx = multiprocessing.get_context("spawn")
            workers = min(len(configs), os.cpu_count() or 1)
            with ctx.Pool(workers) as pool:
                entries = pool.map(run_shard, configs)
        return sorted(entries, key=lambda s: s["shard"])

    # ----------------------------------------------------------------- serve
    def serve(
        self,
        requests: int = 200,
        *,
        warmup: int = 20,
        connections: int | None = None,
        client_cycles_per_request: int = 0,
    ) -> dict:
        """Serve ``requests`` across the fleet and return the merged report.

        ``warmup`` and ``connections`` are per shard (each shard runs its
        own wrk client); ``requests`` is the cluster-wide total the
        balancer splits.  Round 0 serves the planned schedule.  With the
        fault layer active (a non-empty chaos plan or a per-request
        deadline), failed requests — unserved on a crashed/hung shard, or
        served past their deadline — are re-planned over live shards in
        health-checked retry rounds, and the report gains ``chaos`` and
        ``availability`` sections.  With it inactive round 0 is the only
        round, and the report is byte-identical to the fault-free cluster.
        """
        from repro.cpu.costs import CostModel

        faulted = self._fault_active()
        freq = CostModel().frequency_hz
        deadline = self.deadline_cycles
        retry = self.retry if self.retry is not None else RetryPolicy()
        jitter_rng = SplitMix64(self.smp_seed ^ 0xC11A05F417)
        health = self.last_health = HealthModel(
            self.shards, tracer=self.tracer, **(self.health_opts or {})
        )
        opts = {"warmup": warmup, "connections": connections,
                "client_cycles_per_request": client_cycles_per_request}

        configs = self.shard_configs(requests, **opts)
        balancer = self.last_balancer
        assigned: dict[int, list[int]] = {s: [] for s in range(self.shards)}
        for rid, shard in enumerate(balancer.assignments):
            assigned[shard].append(rid)

        per_shard = self._run_shards(configs)

        # per-request outcome state, across rounds
        success: dict[int, int] = {}  # rid -> client-perceived latency
        penalty: dict[int, int] = {}  # rid -> accumulated backoff cycles
        duplicate_serves = 0
        timeout_count = 0

        def evaluate(entries: list[dict], id_lists: dict[int, list[int]],
                     round_: int, ts: int) -> list[tuple[int, int]]:
            """Fold one round's shard rows into outcomes + heartbeats;
            returns the failed ``(rid, from_shard)`` pairs."""
            nonlocal duplicate_serves, timeout_count
            failed: list[tuple[int, int]] = []
            for entry in entries:
                shard = entry["shard"]
                ids = id_lists[shard]
                result = entry["result"]
                info = entry.get("chaos")
                if result is None:
                    served = 0
                    status = "dead"
                    samples = []
                else:
                    served = result.get("served", result["requests"])
                    status = info["status"] if info else "ok"
                    samples = result["latency_samples_cycles"]
                timeouts = 0
                for j, rid in enumerate(ids[:served]):
                    latency = samples[j] if j < len(samples) else 0
                    if deadline is not None and latency > deadline:
                        timeouts += 1
                        failed.append((rid, shard))
                        continue
                    if rid in success:
                        duplicate_serves += 1
                        continue
                    success[rid] = latency + penalty.get(rid, 0)
                for rid in ids[served:]:
                    failed.append((rid, shard))
                timeout_count += timeouts
                health.observe(
                    shard,
                    {"status": status, "assigned": len(ids),
                     "served": served, "timeouts": timeouts},
                    round_=round_, ts=ts,
                )
            return failed

        def window_cycles(entries: list[dict]) -> int:
            rows = [e["result"] for e in entries if e["result"] is not None]
            if not rows:
                return 0
            return int(max(r["measured_seconds"] for r in rows) * freq)

        clock = window_cycles(per_shard)
        failed = evaluate(per_shard, assigned, 0, clock)

        all_entries = list(per_shard)
        backoffs: list[int] = []
        retry_rounds: list[dict] = []
        failover_count = 0
        total_retried = 0
        rounds_run = 1

        for attempt in range(1, retry.max_attempts if faulted else 1):
            if not failed:
                break
            health.begin_round(attempt, ts=clock)
            routable = set(health.routable())
            if not routable:
                break
            backoff = retry.backoff(attempt, jitter_rng)
            backoffs.append(backoff)
            clock += backoff
            failed.sort()
            origin = dict(failed)
            ids = [rid for rid, _ in failed]
            for rid in ids:
                penalty[rid] = penalty.get(rid, 0) + backoff
            balancer.set_down(set(range(self.shards)) - routable)
            routed, events = self._route(ids)
            routed = self._trim_probes(routed, health, routable)
            event_of = dict(zip(ids, events))
            per_target: dict[int, list[int]] = {}
            for rid, target in routed:
                per_target.setdefault(target, []).append(rid)
                if target != origin[rid]:
                    failover_count += 1
            if self.tracer is not None:
                pairs: dict[tuple[int, int], int] = {}
                for rid, target in routed:
                    key = (origin[rid], target)
                    pairs[key] = pairs.get(key, 0) + 1
                for (src, dst), n in sorted(pairs.items()):
                    self.tracer.failover(clock, src, dst, n, round_=attempt)
                self.tracer.retry(clock, attempt, len(routed), backoff)
            total_retried += len(routed)

            retry_configs = []
            for target in sorted(per_target):
                target_ids = per_target[target]
                extra = [
                    self.session_miss_cycles
                    if event_of.get(rid) in ("miss", "migrate") else 0
                    for rid in target_ids
                ] if self.sessions else None
                retry_configs.append(self._shard_config(
                    target, len(target_ids), attempt, opts, extra))
            entries = self._run_shards(retry_configs)
            all_entries.extend(entries)
            clock += window_cycles(entries)
            failed = evaluate(entries, per_target, attempt, clock)
            retry_rounds.append({
                "round": attempt,
                "backoff_cycles": backoff,
                "requests": len(routed),
                "per_shard": {str(s): len(per_target[s])
                              for s in sorted(per_target)},
                "failed_after": len(failed),
            })
            rounds_run += 1

        # ----------------------------------------------------------- report
        rows = [s["result"] for s in per_shard]
        live_rows = [r for r in rows if r is not None]
        completed = len(success)
        pct = latency_percentiles(list(success.values()))
        if faulted:
            # client-perceived: retry windows and backoff included
            measured_seconds = clock / freq if freq else 0.0
        else:
            # the fleet finishes when its slowest shard does
            measured_seconds = max(r["measured_seconds"] for r in rows)
        obs = _merge_obs(all_entries)
        obs["health_per_shard"] = [
            s["obs"]["health"] if s.get("obs") else None for s in per_shard
        ]
        report = {
            "workload": "cluster-webserver",
            "shards": self.shards,
            "policy": self.policy,
            "tool": self.tool,
            "batched": self.batched,
            "cores": self.cores,
            "smp_seed": self.smp_seed,
            "server": self.server,
            "file_size": self.file_size,
            "requests_total": completed,
            "requests_per_shard": [r["requests"] if r else 0 for r in rows],
            "warmup_per_shard": warmup,
            "requests_per_sec": (
                completed / measured_seconds if measured_seconds else 0.0
            ),
            "measured_seconds": measured_seconds,
            "latency_p50_cycles": pct["p50"],
            "latency_p95_cycles": pct["p95"],
            "latency_p99_cycles": pct["p99"],
            "guest_mips_per_shard": [
                r["guest_mips"] if r else 0.0 for r in rows
            ],
            "guest_mips_total": sum(r["guest_mips"] for r in live_rows),
        }
        if self.sessions:
            # Only present when the session model is on, so sessionless
            # reports stay byte-identical to the pre-session cluster.
            report["sessions"] = self.sessions
            report["session_miss_cycles"] = self.session_miss_cycles
            report["session_stats"] = balancer.session_stats()
        if faulted:
            final_failed = sorted(rid for rid, _ in failed)
            fail_latency = deadline if deadline is not None else \
                max((f.deadline_cycles for f in (self.chaos or ())),
                    default=4_000_000)
            pct_incl = latency_percentiles(
                list(success.values()) + [fail_latency] * len(final_failed)
            )
            report["chaos"] = {
                "plan": [f.to_config() | {"shard": f.shard}
                         for f in (self.chaos or ())],
                "deadline_cycles": deadline,
                "retry": {
                    "max_attempts": retry.max_attempts,
                    "backoff_base_cycles": retry.backoff_base_cycles,
                    "backoff_cap_cycles": retry.backoff_cap_cycles,
                },
            }
            report["availability"] = {
                "requests": requests,
                "completed": completed,
                "failed": len(final_failed),
                "failed_ids": final_failed,
                "duplicate_serves": duplicate_serves,
                "success_rate": round(completed / requests, 6) if requests
                else 1.0,
                "rounds": rounds_run,
                "retries": total_retried,
                "failovers": failover_count,
                "timeouts": timeout_count,
                "ring_timeouts": obs["ring_timeouts"],
                "backoff_cycles": backoffs,
                "retry_rounds": retry_rounds,
                "shards_down": [s for s in range(self.shards)
                                if health.states[s] == DOWN],
                "health": health.snapshot(),
                "latency_p99_cycles_incl_failures": pct_incl["p99"],
            }
        report["obs"] = obs
        report["results"] = rows
        return report

    # --------------------------------------------------- retry-round helpers
    def _route(self, ids: list[int]) -> tuple[list[tuple[int, int]], list]:
        """Replan ``ids`` on the live balancer; returns the routed pairs
        and the aligned session events."""
        balancer = self.last_balancer
        start = len(balancer.session_events)
        routed = balancer.replan(ids, sessions=self.sessions)
        return routed, balancer.session_events[start:]

    def _trim_probes(self, routed: list[tuple[int, int]],
                     health: HealthModel,
                     routable: set[int]) -> list[tuple[int, int]]:
        """Cap half-open shards at their probe quota; overflow re-routes
        to fully-live shards (or stays put when only probes are live)."""
        quotas = {s: health.probe_quota(s) for s in routable}
        if not any(q is not None for q in quotas.values()):
            return routed
        kept: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        overflow: list[int] = []
        for rid, target in routed:
            quota = quotas.get(target)
            if quota is not None and counts.get(target, 0) >= quota:
                overflow.append(rid)
                continue
            counts[target] = counts.get(target, 0) + 1
            kept.append((rid, target))
        if overflow:
            probing = {s for s, q in quotas.items() if q is not None}
            steady = routable - probing
            if steady:
                balancer = self.last_balancer
                balancer.set_down(set(range(self.shards)) - steady)
                kept.extend(balancer.replan(overflow,
                                            sessions=self.sessions))
                balancer.set_down(set(range(self.shards)) - routable)
            else:  # only probes are live: quota yields to availability
                for rid, target in routed:
                    if rid in overflow:
                        kept.append((rid, target))
        return sorted(kept)
