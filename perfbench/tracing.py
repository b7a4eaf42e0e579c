"""Timing and counting wrappers installed at widthcert's module boundaries.

Nothing here edits widthcert's source: a `Tracer` replaces attributes on
the loaded modules and classes and puts the originals back in `restore()`.
A function is wrapped in every widthcert namespace that holds it, because a
caller resolves the name in its own module (``from .exactlinalg import
det_field`` binds a second name for the same function).

Each timed call records a span ``[name, start, end, parent]``; spans stay in
memory and are written out once, at the end of the process.  Hot scalar
methods are counted only, because a span per call would cost more than the
call.  A target that no longer exists (renamed or removed) is recorded in
`missing` and the metrics built on it are dropped, never raised.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "widthcert"

# Bytes a numpy `level_pass` touches per (non-zero coefficient pair, output
# slot): two int64 gathers, one int32 map entry, and a read and a write of
# two int64 accumulators.  A model, not a measurement.
_PAIR_SLOT_BYTES = 2 * 8 + 4 + 2 * (8 + 8)
# final `% p` pass: read the two accumulators, write the two outputs
_OUT_SLOT_BYTES = 2 * (8 + 8)


@dataclass(frozen=True)
class Target:
    """One wrap point: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    name: str
    timed: bool = True
    hook: str | None = None


TARGETS = (
    # exactnum: hot scalar methods, counted only
    Target("exactnum:QSqrt2", "__mul__", "exactnum.qs2_mul", timed=False),
    Target("exactnum:QSqrt2", "__rmul__", "exactnum.qs2_mul", timed=False),
    Target("exactnum:QSqrt2", "__add__", "exactnum.qs2_add", timed=False),
    Target("exactnum:QSqrt2", "__radd__", "exactnum.qs2_add", timed=False),
    Target("exactnum:QSqrt2", "sign", "exactnum.qs2_sign", timed=False),
    # mvpoly
    Target("mvpoly:MvPoly", "__mul__", "mvpoly.mul"),
    Target("mvpoly:MvPoly", "substitute_linear", "mvpoly.substitute_linear"),
    Target("mvpoly:MvPoly", "evaluate", "mvpoly.evaluate"),
    Target("mvpoly", "companion_root_enclosure", "mvpoly.companion_root"),
    # exactlinalg
    Target("exactlinalg", "det_field", "exactlinalg.det_field"),
    Target("exactlinalg", "inverse_field", "exactlinalg.inverse_field", timed=False),
    Target("exactlinalg", "adjugate_poly", "exactlinalg.adjugate_poly"),
    # widthlab
    Target("widthlab", "lattice_width", "widthlab.lattice_width", hook="minimizers"),
    Target("widthlab", "hollow_check", "widthlab.hollow_check"),
    Target("widthlab", "width_in_direction", "widthlab.candidates", timed=False),
    Target("widthlab:AffineLattice", "point", "widthlab.hollow_points", timed=False),
    # fastdet
    Target("fastdet", "det_poly_modular", "fastdet.det_poly_modular", hook="det_terms"),
    Target("fastdet", "monomial_table", "fastdet.table"),
    Target("fastdet", "coefficient_norm_bound", "fastdet.bound", hook="bound_bits"),
    Target("fastdet", "_det_one_prime", "fastdet.per_prime", hook="prime"),
    Target("fastdet", "_crt_reconstruct", "fastdet.crt", hook="actual_bits"),
    Target("fastdet", "_verify_against_field_det", "fastdet.verify"),
    # _kernels
    Target("_kernels", "level_pass", "kernels.level_pass", hook="level_pass"),
    # deltacert
    Target("deltacert:Pipeline", "__init__", "deltacert.pipeline"),
    Target("deltacert", "local_maximality_certificate", "deltacert.local_certificate"),
    Target("deltacert", "symmetry_check", "deltacert.symmetry_check"),
    Target("deltacert", "attainment_bound", "deltacert.attainment_bound"),
    Target("deltacert", "hessian_matrix_s", "deltacert.hessian_matrix_build"),
    # globalbounds
    Target("globalbounds", "all_reports", "globalbounds.all_reports"),
    Target("globalbounds", "replay_inequality_chain", "globalbounds.chain"),
)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    return getattr(module, class_name) if class_name else module


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Installs the wrappers of `TARGETS` and records spans and counts."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.dets: list[dict] = []
        self.missing: list[str] = []
        self.missing_names: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- install / restore ---------------------------------------------------

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                owner = _resolve_owner(target.owner)
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.owner}.{target.attr}")
                self.missing_names.add(target.name)
                continue
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._set(owner, target.attr, wrapper)
            else:
                # every widthcert namespace that bound the same function
                for module in _package_modules():
                    if module.__dict__.get(target.attr) is original:
                        self._set(module, target.attr, wrapper)
        return self

    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        name = target.name
        counts = self.counts
        if not target.timed:
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        hook = getattr(self, f"_hook_{target.hook}") if target.hook else None

        def timed(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return timed

    def _add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _hook_minimizers(self, args, result) -> None:
        self._add("widthlab.minimizers", len(result.minimizers))

    def _det(self, opens: bool = False) -> dict:
        if opens or not self.dets:
            self.dets.append({"primes": []})
        return self.dets[-1]

    def _hook_det_terms(self, args, result) -> None:
        self._det()["terms"] = len(result.terms)

    def _hook_bound_bits(self, args, result) -> None:
        # the bound opens a new determinant; the later fastdet hooks fill it in
        self._det(opens=True)["bound_bits"] = int(result).bit_length()

    def _hook_prime(self, args, result) -> None:
        self._det()["primes"].append(int(args[5]))

    def _hook_actual_bits(self, args, result) -> None:
        det_a, det_b = result
        self._det()["actual_bits"] = max(
            (abs(int(x)).bit_length() for x in list(det_a) + list(det_b)), default=0)

    def _hook_level_pass(self, args, result) -> None:
        coeff_a, coeff_b, out_a = args[3], args[4], args[6]
        pairs = int(np.count_nonzero((coeff_a != 0) | (coeff_b != 0)))
        nsub, size_k = out_a.shape
        self._add("kernels.madds", pairs * size_k)
        self._add("kernels.bytes_moved",
                  pairs * size_k * _PAIR_SLOT_BYTES + nsub * size_k * _OUT_SLOT_BYTES)

    # -- output -----------------------------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-able data."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "extra": self.extra,
            "dets": self.dets,
            "missing": self.missing,
            "missing_names": sorted(self.missing_names),
        }


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self time per span name.

    Inclusive time counts only the outermost span of a name, so recursion
    (``MvPoly.__pow__`` calling ``__mul__``) is not counted twice.  Self time
    is a span's duration minus the durations of its direct children.
    """
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_total = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_total[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - child_total[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return inclusive, self_time
