"""Per-layer spans around stringymirror's public functions, installed from
outside the package.

Every cross-module call in the package goes through a module-level name
(``from .weights import ip_property`` binds ``cli.ip_property``), so
rebinding each of those names to a timing wrapper puts a span on every layer
boundary without touching ``src/``.  A span's self time is its duration
minus the time covered by the spans it caused.

Counts are exact and depend only on the code and the inputs:
``calls`` counts every call through the wrapper, cache hits included;
``repeat_ratio`` is the share of calls whose arguments were already seen.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _weights_key(args, kwargs):
    return args[0]


def _face_key(args, kwargs):
    # (wv, J): J arrives as a frozenset from the package's own callers
    return args[0], frozenset(args[1])


def _accepted(stat: "LayerStat", first: bool, args, kwargs, result) -> None:
    if first:
        stat.extra["accepted"] += bool(result)


def _pairs(stat: "LayerStat", first: bool, args, kwargs, result) -> None:
    # vafa_euler sums over all (l, r) in (Z/wZ)^2: w^2 pairs, computed from
    # the argument, not counted inside the loop
    stat.extra["pairs"] += args[0].w ** 2


def _reconstruction(stat: "LayerStat", first: bool, args, kwargs, result) -> None:
    series = args[0]
    bound = args[2] if len(args) > 2 else kwargs["num_bound"]
    stat.extra["coeffs"] += len(series)
    stat.extra["guard_coeffs"] += len(series) - 1 - bound


# (module, function) -> (argument key for repeat tracking, extra counter,
# names of the extra counts)
TARGETS: Dict[Tuple[str, str], Tuple[Optional[Callable], Optional[Callable], Tuple[str, ...]]] = {
    ("weights", "ip_property"): (_weights_key, _accepted, ("accepted",)),
    ("weights", "transverse"): (None, None, ()),
    ("weights", "lattice_counts"): (None, None, ()),
    ("stringy", "bracket"): (_face_key, None, ()),
    ("stringy", "stringy_e"): (_weights_key, None, ()),
    ("stringy", "stringy_e_per_l"): (None, None, ()),
    ("exact_arith", "series_to_rational"): (None, _reconstruction, ("coeffs", "guard_coeffs")),
    ("face_epoly", "face_e"): (_face_key, None, ()),
    ("orbifold", "vafa_euler"): (None, _pairs, ("pairs",)),
    ("orbifold", "mirror_orbifold_e"): (_weights_key, None, ()),
    ("orbifold", "vafa_poincare"): (None, None, ()),
    ("mirror_verify", "verify"): (None, None, ()),
    ("cli", "render_efunction"): (None, None, ()),
    ("cli", "main"): (None, None, ()),
}


class LayerStat:
    __slots__ = ("calls", "self_s", "repeats", "seen", "extra")

    def __init__(self, track_args: bool, extra_names: Tuple[str, ...]):
        self.calls = 0
        self.self_s = 0.0
        self.repeats = 0
        self.seen = set() if track_args else None
        self.extra: Dict[str, int] = dict.fromkeys(extra_names, 0)

    def report(self) -> Dict[str, float]:
        out: Dict[str, float] = {"calls": self.calls, "self_s": self.self_s}
        if self.seen is not None:
            out["repeat_ratio"] = self.repeats / self.calls if self.calls else 0.0
        out.update(self.extra)
        return out


class Tracer:
    """Installs the wrappers into an imported ``stringymirror`` package."""

    def __init__(self):
        self.stats: Dict[str, LayerStat] = {}
        # one child-time accumulator per open span
        self._open: List[float] = []

    def install(self, package: str = "stringymirror") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for (mod_name, fn_name), (key, extra, names) in TARGETS.items():
            home = sys.modules[f"{package}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, key, extra, names)
            rebound = 0
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"{mod_name}.{fn_name} is bound nowhere")

    def _wrap(self, label: str, fn: Callable, key, extra, names) -> Callable:
        stat = self.stats[label] = LayerStat(key is not None, names)
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            first = True
            if key is not None:
                k = key(args, kwargs)
                first = k not in stat.seen
                if first:
                    stat.seen.add(k)
                else:
                    stat.repeats += 1
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stat.self_s += span - open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
            if extra is not None:
                extra(stat, first, args, kwargs, result)
            return result

        return wrapper

    def report(self) -> Dict[str, Dict[str, float]]:
        out = {label: s.report() for label, s in self.stats.items()}
        # accepted over distinct candidates: the scan's own test plus the
        # re-checks inside stringy/verify would otherwise count one vector twice
        ip = self.stats["weights.ip_property"]
        tested = len(ip.seen)
        out["weights.ip_property"]["accept_ratio"] = (
            ip.extra["accepted"] / tested if tested else 0.0
        )
        return out
