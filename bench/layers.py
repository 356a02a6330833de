"""Where the traced run hooks into aflsim, and the per-layer metrics it derives.

Spans are named after the module that owns the layer.  Each hook wraps the
name a caller resolves at call time (a module global or class attribute), so
the wrapper sees every call the engine makes.  `LAYER_METRICS` is the list
`BENCHMARK.json` mirrors under `per_layer`.
"""

from spans import Hook, Installed, Tracer

RUNNER_SPAN = "simcli.runner"  # opened by the harness around run_preset / run_scenario


def _keep_world(tracer, args, world):
    tracer.worlds.append(world)


def _count_quotes(tracer, args, quotes):
    tracer.counters["policy_pas.quotes_built"] += len(quotes)


def _count_requests(tracer, args, requests):
    tracer.counters["market.auction_requests"] += len(requests)


def _count_cleared(tracer, args, result):
    tracer.counters["market.auction_cleared"] += len(result[0].payments)


def _count_drawn(tracer, args, result):
    tracer.counters["demand.tasks_drawn"] += sum(result[0].kappa.values())


def _count_routing(tracer, args, routing):
    decisions = args[2]
    tracer.counters["market.routing_decided"] += sum(d.subdelegate_s for d in decisions.values())
    tracer.counters["market.routing_moved"] += sum(routing.s_realized.values())


class _TracedWriter:
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner
        self._span = tracer.name_index("simcli.csv")

    def writerow(self, row):
        return self.writerows([row])

    def writerows(self, rows):
        idx = self._tracer.open(self._span)
        try:
            rows = list(rows)  # rows are often a generator that formats them
            self._inner.writerows(rows)
        finally:
            self._tracer.close(idx)
        self._tracer.counters["simcli.csv_rows"] += len(rows)


class _TracedCsv:
    """Stands in for the `csv` module inside simcli so that row writing is timed."""

    def __init__(self, tracer: Tracer, real_csv):
        self._tracer = tracer
        self._real = real_csv

    def __getattr__(self, name):
        return getattr(self._real, name)

    def writer(self, *args, **kwargs):
        return _TracedWriter(self._tracer, self._real.writer(*args, **kwargs))


HOOKS = (
    Hook("aflsim.config", "resolve_config", "config.resolve"),
    Hook("aflsim.simcli", "run_scenario", "simcli.cell"),
    Hook("aflsim.simcli", "build_world", "market.build_world", _keep_world),
    Hook("aflsim.simcli", "step", "market.step"),
    Hook("aflsim.simcli", "csv", "simcli.csv", factory=_TracedCsv),
    Hook("aflsim.market", "World._build_contexts", "market.contexts"),
    Hook("aflsim.market", "eligible_delegates", "policy_pas.eligible_delegates", _count_quotes),
    Hook("aflsim.market", "decide_for_policy", "policy_baselines.decide"),
    Hook("aflsim.market", "run_auction", "market.auction", _count_cleared),
    Hook("aflsim.market", "_mu_requests", None, _count_requests),
    Hook("aflsim.market", "_demand_model_arrivals", "demand.arrivals", _count_drawn),
    Hook("aflsim.market", "route_subdelegations", "market.routing", _count_routing),
    Hook("aflsim.market", "_run_step_audits", "market.audits"),
)

# (name, unit, deterministic).  Deterministic metrics must repeat exactly on
# every traced pass; the others are reported as the median over passes.
LAYER_METRICS = (
    ("config.resolve_s", "s", False),
    ("market.build_world_s", "s", False),
    ("market.trust_edges", "count", True),
    ("market.step_s", "s", False),
    ("market.step_self_s", "s", False),
    ("market.step_calls", "count", True),
    ("market.contexts_s", "s", False),
    ("market.contexts_self_s", "s", False),
    ("policy_pas.eligible_delegates_s", "s", False),
    ("policy_pas.eligible_delegates_calls", "count", True),
    ("policy_pas.quotes_built", "count", True),
    ("policy_baselines.decide_s", "s", False),
    ("policy_baselines.decide_calls", "count", True),
    ("market.auction_s", "s", False),
    ("market.auction_requests", "count", True),
    ("market.auction_cleared", "count", True),
    ("market.auction_clear_ratio", "ratio", True),
    ("demand.arrivals_s", "s", False),
    ("demand.tasks_drawn", "count", True),
    ("market.routing_s", "s", False),
    ("market.routing_decided", "count", True),
    ("market.routing_moved", "count", True),
    ("market.routing_fill_ratio", "ratio", True),
    ("market.audits_s", "s", False),
    ("market.audit_checks", "count", True),
    ("market.tasks_created", "count", True),
    ("market.tasks_completed", "count", True),
    ("market.degenerate_price_steps", "count", True),
    ("simcli.csv_s", "s", False),
    ("simcli.csv_rows", "count", True),
    ("simcli.csv_bytes", "bytes", True),
    ("simcli.cell_s", "s", False),
    ("simcli.cell_self_s", "s", False),
    ("simcli.runner_s", "s", False),
    ("simcli.runner_self_s", "s", False),
    ("simcli.runner_cells", "count", True),
    ("simcli.runner_overlap", "ratio", False),
    ("trace.spans", "count", True),
    ("trace.untraced_pass_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("trace.overhead_share", "ratio", False),
)


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _world_sum(worlds, attr):
    total = 0
    for world in worlds:
        obj = world
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            return None
        total += obj
    return total


def pass_metrics(tracer: Tracer, installed: Installed, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced pass; None marks a layer whose hook is absent.

    The `trace.untraced_pass_s` and `trace.overhead*` entries need the
    untraced passes and are filled in by the caller.
    """
    spans = tracer.reduce()
    ok = {hook.span or hook.attr for hook in installed.hooks if installed.working(hook)}
    ok.add(RUNNER_SPAN)

    def calls(span):
        return spans.get(span, (0, 0.0, 0.0))[0] if span in ok else None

    def incl(span):
        return spans.get(span, (0, 0.0, 0.0))[1] if span in ok else None

    def own(span):
        return spans.get(span, (0, 0.0, 0.0))[2] if span in ok else None

    def counter(hook_key, name):
        return tracer.counters.get(name, 0) if hook_key in ok else None

    worlds = tracer.worlds if "market.build_world" in ok else None

    def world_sum(attr):
        return None if worlds is None else _world_sum(worlds, attr)

    cleared = counter("market.auction", "market.auction_cleared")
    requests = counter("_mu_requests", "market.auction_requests")
    decided = counter("market.routing", "market.routing_decided")
    moved = counter("market.routing", "market.routing_moved")
    cell_s = incl("simcli.cell")
    runner_s = incl(RUNNER_SPAN)
    return {
        "config.resolve_s": incl("config.resolve"),
        "market.build_world_s": incl("market.build_world"),
        "market.trust_edges": world_sum("network.n_edges"),
        "market.step_s": incl("market.step"),
        "market.step_self_s": own("market.step"),
        "market.step_calls": calls("market.step"),
        "market.contexts_s": incl("market.contexts"),
        "market.contexts_self_s": own("market.contexts"),
        "policy_pas.eligible_delegates_s": incl("policy_pas.eligible_delegates"),
        "policy_pas.eligible_delegates_calls": calls("policy_pas.eligible_delegates"),
        "policy_pas.quotes_built": counter(
            "policy_pas.eligible_delegates", "policy_pas.quotes_built"
        ),
        "policy_baselines.decide_s": incl("policy_baselines.decide"),
        "policy_baselines.decide_calls": calls("policy_baselines.decide"),
        "market.auction_s": incl("market.auction"),
        "market.auction_requests": requests,
        "market.auction_cleared": cleared,
        "market.auction_clear_ratio": _ratio(cleared, requests),
        "demand.arrivals_s": incl("demand.arrivals"),
        "demand.tasks_drawn": counter("demand.arrivals", "demand.tasks_drawn"),
        "market.routing_s": incl("market.routing"),
        "market.routing_decided": decided,
        "market.routing_moved": moved,
        "market.routing_fill_ratio": _ratio(moved, decided),
        "market.audits_s": incl("market.audits"),
        "market.audit_checks": world_sum("audit_checks"),
        "market.tasks_created": world_sum("created_tasks"),
        "market.tasks_completed": world_sum("completed_tasks"),
        "market.degenerate_price_steps": world_sum("degenerate_price_steps"),
        "simcli.csv_s": incl("simcli.csv"),
        "simcli.csv_rows": counter("simcli.csv", "simcli.csv_rows"),
        "simcli.csv_bytes": csv_bytes,
        "simcli.cell_s": cell_s,
        "simcli.cell_self_s": own("simcli.cell"),
        "simcli.runner_s": runner_s,
        "simcli.runner_self_s": own(RUNNER_SPAN),
        "simcli.runner_cells": calls("simcli.cell"),
        "simcli.runner_overlap": _ratio(cell_s, runner_s),
        "trace.spans": len(tracer.start),
    }
