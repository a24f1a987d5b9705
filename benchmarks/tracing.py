"""In-memory spans around the public functions of every dpaudit module.

The package's modules import names from each other directly (``cli``
binds ``adp_test_budgeted``, ``harness`` binds ``build_fixture``), so a
wrapper on the defining module alone would miss most calls. The tracer
therefore replaces every module binding of each wrapped function, and
patches methods on their classes. Private helpers are not wrapped: their
time counts as self time of the public function that called them.

A span is (name, start, end, parent, request id). The benchmark opens one
root span per request; spans outside a request are not recorded. Layers
are the package's modules, and a span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Modules whose public functions and methods get spans; they are the layers.
LAYERS = (
    "distributions",
    "mechanisms",
    "noinfo",
    "fullinfo",
    "randomprivacy",
    "fixtures",
    "harness",
    "cli",
)

#: The benchmark's own request span; its self time is in no wrapped function.
REQUEST_SPAN = "unattributed.request"

#: Exact oracles of the distributions layer.
ORACLES = {
    "distributions." + name
    for name in (
        "tv_distance",
        "kl_divergence",
        "max_divergence",
        "exact_pdp_epsilon",
        "delta_at_epsilon",
        "delta_at_epsilon_directed",
        "brute_force_delta",
        "approx_max_divergence_bruteforce",
    )
}
TESTERS = {
    "noinfo.adp_test_ni",
    "noinfo.adp_test_budgeted",
    "fullinfo.adp_test_fi",
    "fullinfo.pdp_test_fi",
}


def _draw_samples(args, kwargs, result) -> tuple[str, float]:
    return "mechanisms.draw.samples", float(kwargs["count"] if "count" in kwargs else args[2])


def _poisson_retries(args, kwargs, result) -> tuple[str, float]:
    return "noinfo.poisson_retries", float(result.diagnostics.get("retries", 0))


def _harness_trials(args, kwargs, result) -> tuple[str, float]:
    return "harness.trials", float(args[0].trials)


#: Quantities read off a call's arguments or result, keyed by span name.
HOOKS = {
    "mechanisms.MechanismPair.draw": _draw_samples,
    "noinfo.adp_test_ni": _poisson_retries,
    "harness.run_experiment": _harness_trials,
}

#: Per-layer metrics in the order they are reported, with their units.
#: Counts and times are per verdict of the traced part of the run.
PER_LAYER_UNITS = {
    "mechanisms.draw.calls": "count/verdict",
    "mechanisms.draw.samples": "count/verdict",
    "mechanisms.draw.self_ms": "ms/verdict",
    "mechanisms.samples_per_draw": "count",
    "mechanisms.pair_init.calls": "count/verdict",
    "mechanisms.pair_init.self_ms": "ms/verdict",
    "mechanisms.self_ms": "ms/verdict",
    "noinfo.tester.calls": "count/verdict",
    "noinfo.tester.self_ms": "ms/verdict",
    "noinfo.poisson_retries": "count/verdict",
    "noinfo.self_ms": "ms/verdict",
    "randomprivacy.pairs": "count/verdict",
    "randomprivacy.inner_calls": "count/verdict",
    "randomprivacy.self_ms": "ms/verdict",
    "fullinfo.calibrate.calls": "count/verdict",
    "fullinfo.calibrate.self_ms": "ms/verdict",
    "fullinfo.cache.lookups": "count/verdict",
    "fullinfo.cache.hit_ratio": "ratio",
    "fullinfo.identity.calls": "count/verdict",
    "fullinfo.identity.self_ms": "ms/verdict",
    "fullinfo.adp_fi.self_ms": "ms/verdict",
    "fullinfo.self_ms": "ms/verdict",
    "distributions.oracle.calls": "count/verdict",
    "distributions.oracle.self_ms": "ms/verdict",
    "distributions.self_ms": "ms/verdict",
    "fixtures.build.calls": "count/verdict",
    "fixtures.build.self_ms": "ms/verdict",
    "fixtures.perturb.self_ms": "ms/verdict",
    "fixtures.self_ms": "ms/verdict",
    "harness.trials": "count/verdict",
    "harness.self_ms": "ms/verdict",
    "cli.self_ms": "ms/verdict",
    "unattributed.self_ms": "ms/verdict",
    "trace.overhead_frac": "ratio",
}


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the union of its children's intervals.

    Spans are indexed in start order, so each parent precedes its
    children and a parent's children arrive sorted by start; a running
    maximum of covered time then merges overlapping children.
    """
    covered = [0.0] * len(starts)
    reach = {}
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], starts[parent], reach.get(parent, starts[parent]))
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach.get(parent, starts[parent]), min(ends[i], ends[parent]))
    return [end - start - cover for start, end, cover in zip(starts, ends, covered)]


class Tracer:
    """Wrappers for the dpaudit package, installed only while tracing."""

    def __init__(self, package) -> None:
        self.names: list[str] = [REQUEST_SPAN]
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.quantities: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._collect(package)

    # -- installation -------------------------------------------------

    def _collect(self, package) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._collect_methods(layer, module, obj)
        prefix = package.__name__ + "."
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patches.append((module, attr, obj, wrapped[id(obj)]))

    def _collect_methods(self, layer: str, module, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            # hand-written constructors count, dataclass-generated ones do not
            handwritten_init = attr == "__init__" and fn.__code__.co_filename == module.__file__
            if attr.startswith("_") and not handwritten_init:
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            self._patches.append((cls, attr, raw, kind(wrapper) if kind else wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack, ends, quantities, clock = self._stack, self.ends, self.quantities, time.perf_counter
        add_name, add_parent, add_request = self.name_ids.append, self.parents.append, self.requests.append
        add_end, add_start = ends.append, self.starts.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent < 0:
                return fn(*args, **kwargs)
            index = len(ends)
            add_name(name_id)
            add_parent(parent)
            add_request(self._request)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                key, value = hook(args, kwargs, result)
                quantities[key] += value
            return result

        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; wrapped calls inside it are recorded."""
        self._request = request_id
        index = len(self.ends)
        self.name_ids.append(0)
        self.parents.append(-1)
        self.requests.append(request_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
            self._request = -1

    # -- reduction ----------------------------------------------------

    def layer_metrics(self, verdicts: int) -> dict[str, float]:
        """Per-layer metrics per verdict, after checking the time budget.

        Self times of all spans, the request spans' own included as
        unattributed time, must add up to the traced wall: the summed
        durations of the request spans.
        """
        if verdicts < 1:
            raise ValueError("per-layer metrics need at least one traced verdict")
        selfs = self_times(self.starts, self.ends, self.parents)
        wall = sum(
            self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p < 0
        )
        if abs(sum(selfs) - wall) > 1e-9 * max(1.0, wall):
            raise RuntimeError(f"self times add up to {sum(selfs)!r}, traced wall is {wall!r}")

        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name_id, own in zip(self.name_ids, selfs):
            calls[self.names[name_id]] += 1
            self_s[self.names[name_id]] += own
        # spans of a tester nested (at any depth) inside the reduction
        inside = array("b", bytes(len(self.parents)))
        inner_calls = 0
        cache_misses = 0
        for i, parent in enumerate(self.parents):
            if parent < 0:
                continue
            parent_name = self.names[self.name_ids[parent]]
            name = self.names[self.name_ids[i]]
            inside[i] = inside[parent] or parent_name == "randomprivacy.random_privacy_test"
            inner_calls += inside[i] and name in TESTERS
            cache_misses += (
                name == "fullinfo.calibrate_identity_threshold"
                and parent_name == "fullinfo.CalibrationCache.threshold_for"
            )

        def count(names) -> float:
            return sum(calls[n] for n in names) / verdicts

        def ms(names) -> float:
            return 1e3 * sum(self_s[n] for n in names) / verdicts

        def layer(prefix: str) -> list[str]:
            return [n for n in self.names if n.startswith(prefix + ".")]

        draw = ["mechanisms.MechanismPair.draw"]
        builders = [n for n in layer("fixtures") if n.endswith("_fixture")]
        lookups = calls["fullinfo.CalibrationCache.threshold_for"]
        identity = ["fullinfo.identity_test", "fullinfo.identity_statistic"]
        noinfo_testers = ["noinfo.adp_test_ni", "noinfo.adp_test_budgeted"]
        return {
            "mechanisms.draw.calls": count(draw),
            "mechanisms.draw.samples": self.quantities["mechanisms.draw.samples"] / verdicts,
            "mechanisms.draw.self_ms": ms(draw),
            "mechanisms.samples_per_draw": (
                self.quantities["mechanisms.draw.samples"] / calls[draw[0]] if calls[draw[0]] else 0.0
            ),
            "mechanisms.pair_init.calls": count(["mechanisms.MechanismPair.__init__"]),
            "mechanisms.pair_init.self_ms": ms(
                ["mechanisms.MechanismPair.__init__", "mechanisms.MechanismPair.spawn"]
            ),
            "mechanisms.self_ms": ms(layer("mechanisms")),
            "noinfo.tester.calls": count(noinfo_testers),
            "noinfo.tester.self_ms": ms(noinfo_testers),
            "noinfo.poisson_retries": self.quantities["noinfo.poisson_retries"] / verdicts,
            "noinfo.self_ms": ms(layer("noinfo")),
            "randomprivacy.pairs": count(["randomprivacy.sample_neighbor_pair"]),
            "randomprivacy.inner_calls": inner_calls / verdicts,
            "randomprivacy.self_ms": ms(layer("randomprivacy")),
            "fullinfo.calibrate.calls": count(["fullinfo.calibrate_identity_threshold"]),
            "fullinfo.calibrate.self_ms": ms(["fullinfo.calibrate_identity_threshold"]),
            "fullinfo.cache.lookups": lookups / verdicts,
            "fullinfo.cache.hit_ratio": (lookups - cache_misses) / lookups if lookups else 0.0,
            "fullinfo.identity.calls": count(["fullinfo.identity_test"]),
            "fullinfo.identity.self_ms": ms(identity),
            "fullinfo.adp_fi.self_ms": ms(["fullinfo.adp_test_fi"]),
            "fullinfo.self_ms": ms(layer("fullinfo")),
            "distributions.oracle.calls": count(ORACLES),
            "distributions.oracle.self_ms": ms(ORACLES),
            "distributions.self_ms": ms(layer("distributions")),
            "fixtures.build.calls": count(["fixtures.build_fixture"]),
            "fixtures.build.self_ms": ms(builders),
            "fixtures.perturb.self_ms": ms(["fixtures.tight_perturbation"]),
            "fixtures.self_ms": ms(layer("fixtures")),
            "harness.trials": self.quantities["harness.trials"] / verdicts,
            "harness.self_ms": ms(layer("harness")),
            "cli.self_ms": ms(layer("cli")),
            "unattributed.self_ms": ms([REQUEST_SPAN]),
        }

    def dump(self, path: Path, manifest: dict) -> None:
        """Write the spans gzipped: a JSON header line with the manifest and
        span names, then one "name_id start end parent request" line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"manifest": manifest, "names": self.names}) + "\n")
            for row in zip(self.name_ids, self.starts, self.ends, self.parents, self.requests):
                out.write("%d %r %r %d %d\n" % row)
