"""Out-of-program tracing of algforge's public functions.

`Tracer.install()` wraps the functions listed in `TARGETS` from outside:
a module-level function is replaced under every name that any loaded
`algforge` module bound to it (so `constructions.generate` is wrapped as
well as `algebra.generate`), and methods are replaced on their class.
Each call records one span ``(id, parent, name, start, end, extra)`` in
memory; `uninstall()` restores the originals.  Nothing inside the program
is changed on disk, and untraced rounds run the program unwrapped.
"""

from __future__ import annotations

import json
import statistics
import time

# (module, attribute, class or None, layer name); several functions may
# share one layer name, e.g. the three elimination routines in `linear`.
TARGETS = [
    ("matrices", "__matmul__", "Mat", "matrices.matmul"),
    ("linear", "add", "EchelonSpan", "linear.span_add"),
    ("linear", "contains", "EchelonSpan", "linear.span_contains"),
    ("linear", "solve", None, "linear.elim"),
    ("linear", "invert", None, "linear.elim"),
    ("linear", "nullspace", None, "linear.elim"),
    ("algebra", "generate", None, "algebra.generate"),
    ("algebra", "algebra_from_json", None, "algebra.load"),
    ("algebra", "conjugate_algebra", None, "algebra.conjugate"),
    ("algebra", "covering_matrix", None, "algebra.covering"),
    ("algebra", "nonneg_covering_exists", None, "algebra.covering"),
    ("simplex", "feasible_ge", None, "simplex.feasible"),
    ("polynomials", "rational_roots", None, "polynomials.rational_roots"),
    ("polynomials", "sturm_real_root_count", None, "polynomials.sturm"),
    ("spectral", "char_poly", None, "spectral.char_poly"),
    ("spectral", "has_simple_real_eigenvalue", None, "spectral.simple_real"),
    ("spectral", "rational_spectral_projector", None, "spectral.projector"),
    ("incidence", "incidence_of_dimension", None, "incidence.build"),
    ("incidence", "triangularize_incidence", None, "incidence.build"),
    ("constructions", "semicommuting_pair", None,
     "constructions.semicommuting_pair"),
    ("constructions", "classify_positive_generation", None,
     "constructions.classify"),
    ("constructions", "single_generator_nonneg", None,
     "constructions.single_generator"),
    ("constructions", "positive_generators_from_positive", None,
     "constructions.positive_generators"),
    ("certificates", "to_json", "Certificate", "certificates.serialize"),
    ("verify", "verify_document", None, "verify.document"),
]

# Layers reported by self time (span time minus the time of traced calls
# made inside it); every other layer is reported by inclusive time.
SELF_TIME = {"constructions.semicommuting_pair", "constructions.classify",
             "constructions.single_generator",
             "constructions.positive_generators"}

# Property kinds whose verification time is reported one by one.
VERIFY_KINDS = ["dimension", "spans_pattern", "semi_commuting", "nonneg",
                "positive", "in_algebra", "generate_equal_conjugated",
                "has_simple_real_eigenvalue"]


def entry_bits(values) -> int:
    """Largest bit length of a numerator or denominator among Fractions."""
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


# Extra data kept with a span.  Only a reference is stored while the call is
# timed; `Tracer.settle()` turns it into a number after the round, so the
# conversion cost lands in no span.
KEEP = {
    "matrices.matmul": lambda result, args: result,
    "linear.span_add": lambda result, args: bool(result),
    "verify.document": lambda result, args: args[0],
}
SETTLE = {
    "matrices.matmul": lambda m: entry_bits(v for row in m.data for v in row),
    "linear.span_add": lambda ok: ok,
    "verify.document": lambda doc: hash(json.dumps(doc, sort_keys=True)),
}


class Tracer:
    """Span recorder; also used for the benchmark's own operation spans."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> loaded algforge module
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def begin(self) -> tuple[int, int, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name: str, extra=None) -> None:
        t1 = time.perf_counter()
        sid, parent, t0 = token
        # Pop down to this span: a time-limit signal that lands between a
        # wrapper's begin() and its try block leaves that span open.
        while self._stack.pop() != sid:
            pass
        self.spans.append((sid, parent, name, t0, t1, extra))

    def _wrap(self, fn, name):
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            token = self.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(token, name,
                         keep(result, args) if keep is not None else None)
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, cls_name, layer in TARGETS:
            mod = self.modules[mod_name]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, layer))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, layer)
            for other in self.modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = [0]

    def settle(self) -> list[tuple]:
        """Replace kept references by their numbers; returns the spans."""
        self.spans = [s if s[5] is None or s[2] not in SETTLE
                      else s[:5] + (SETTLE[s[2]](s[5]),) for s in self.spans]
        return self.spans

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- analysis ------------------------------------------------------------------

def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced round."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def ancestors(s):
        while s[1] in by_id:
            s = by_id[s[1]]
            yield s

    def root_name(s):
        name = s[2]
        for a in ancestors(s):
            name = a[2]
        return name

    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    matmul_bits = products = adds = useful = 0
    cli_verify_calls = 0
    cli_docs: set = set()
    for s in spans:
        name, dur = s[2], s[4] - s[3]
        calls[name] = calls.get(name, 0) + 1
        if name in SELF_TIME:
            dur -= child_time.get(s[0], 0.0)
        elif any(a[2] == name for a in ancestors(s)):
            dur = 0.0  # nested call of the same layer, already inside its parent
        seconds[name] = seconds.get(name, 0.0) + dur
        if name == "matrices.matmul":
            if s[5] is not None:
                matmul_bits = max(matmul_bits, s[5])
            if any(a[2] == "algebra.generate" for a in ancestors(s)):
                products += 1
        elif name == "linear.span_add":
            adds += 1
            useful += bool(s[5])
        elif name == "verify.document" and root_name(s) == "op.cli":
            cli_verify_calls += 1
            cli_docs.add(s[5])

    def t(layer):
        return seconds.get(layer, 0.0)

    def n(layer):
        return calls.get(layer, 0)

    return {
        "matrices.matmul_calls": n("matrices.matmul"),
        "matrices.matmul_s": t("matrices.matmul"),
        "matrices.max_entry_bits": matmul_bits,
        "linear.span_add_calls": adds,
        "linear.span_add_s": t("linear.span_add"),
        "linear.span_add_useful_ratio": useful / adds if adds else 0.0,
        "linear.span_contains_s": t("linear.span_contains"),
        "linear.elim_s": t("linear.elim"),
        "algebra.generate_calls": n("algebra.generate"),
        "algebra.generate_s": t("algebra.generate"),
        "algebra.generate_products": products,
        "algebra.load_s": t("algebra.load"),
        "algebra.conjugate_s": t("algebra.conjugate"),
        "algebra.covering_s": t("algebra.covering"),
        "simplex.feasible_calls": n("simplex.feasible"),
        "simplex.feasible_s": t("simplex.feasible"),
        "polynomials.rational_roots_calls": n("polynomials.rational_roots"),
        "polynomials.rational_roots_s": t("polynomials.rational_roots"),
        "polynomials.sturm_s": t("polynomials.sturm"),
        "spectral.char_poly_s": t("spectral.char_poly"),
        "spectral.simple_real_s": t("spectral.simple_real"),
        "spectral.projector_s": t("spectral.projector"),
        "incidence.build_s": t("incidence.build"),
        "constructions.semicommuting_pair_s":
            t("constructions.semicommuting_pair"),
        "constructions.classify_s": t("constructions.classify"),
        "constructions.single_generator_s":
            t("constructions.single_generator"),
        "constructions.positive_generators_s":
            t("constructions.positive_generators"),
        "certificates.serialize_s": t("certificates.serialize"),
        "verify.calls": n("verify.document"),
        "cli.verify_calls_per_cert":
            cli_verify_calls / len(cli_docs) if cli_docs else 0.0,
    }


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per metric, the median over rounds (the lower one of an even count,
    so every value is one that was measured)."""
    return {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
