"""Per-layer tracing for the benchmark, installed from outside the library.

The library has no hooks of its own, so :func:`instrument` replaces the
names that ``sichash.phf``, ``sichash.cuckoo`` and ``sichash.retrieval``
look up at call time with timing wrappers, and restores them on exit.

Two kinds of wrapper exist:

* spans, for stage-sized calls (a build, one bucket, one retrieval
  store, a serialization).  Each span keeps a record with its parent,
  start, duration and self time; the records are written out at the end.
* hot counters, for per-key calls (``RattleTable.insert`` and the scalar
  query functions).  These only add to in-memory call counts and summed
  times, so a million calls cost a few hundred milliseconds.

Self time is a call's duration minus the time of the traced calls made
inside it, whichever kind they are.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from sichash import cuckoo, phf, retrieval, succinct

_perf = time.perf_counter_ns


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.origin = _perf()
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.ok: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        # child time accumulated by each open call, innermost last
        self._child: list[int] = []
        self._open_spans: list[int] = []

    def _close(self, key: str, dt: int) -> int:
        child = self._child.pop()
        self.calls[key] += 1
        self.total_ns[key] += dt
        self.self_ns[key] += dt - child
        if self._child:
            self._child[-1] += dt
        return dt - child

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block; yields its attribute dict."""
        record = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._open_spans[-1] if self._open_spans else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open_spans.append(record["id"])
        self._child.append(0)
        t0 = _perf()
        try:
            yield attrs
        finally:
            dt = _perf() - t0
            self._open_spans.pop()
            record["start_ns"] = t0 - self.origin
            record["dur_ns"] = dt
            record["self_ns"] = self._close(name, dt)

    def wrap_span(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, kwargs, out)
                return out

        return traced

    def wrap_hot(self, key: str, fn, count_true: bool = False):
        child = self._child
        close = self._close
        ok = self.ok

        def traced(*args, **kwargs):
            child.append(0)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(key, _perf() - t0)
            if count_true and out:
                ok[key] += 1
            return out

        return traced

    def add(self, key: str, value: float) -> None:
        self.values[key] += value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's layer boundaries for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, make):
        original = owner.__dict__[name]
        saved.append((owner, name, original))
        if isinstance(original, classmethod):
            inner = make(original.__func__)
            setattr(owner, name, classmethod(inner))
        else:
            setattr(owner, name, make(original))

    t = tracer
    P, C, R, S = phf, cuckoo, retrieval, succinct

    # hashing, as called from the phf layer (build and query paths)
    patch(P, "master_hash_many", lambda f: t.wrap_hot("hashing.master_hash_many", f))
    patch(P, "bucket_of_many", lambda f: t.wrap_hot("hashing.bucket_class_many", f))
    patch(P, "class_of_many", lambda f: t.wrap_hot("hashing.bucket_class_many", f))
    patch(P, "cell_of_many", lambda f: t.wrap_hot("hashing.cell_of_many", f))
    patch(P, "master_hash", lambda f: t.wrap_hot("hashing.master_hash", f))
    patch(P, "bucket_of", lambda f: t.wrap_hot("hashing.bucket_of", f))
    patch(P, "cell_of", lambda f: t.wrap_hot("hashing.cell_of", f))

    # phf assembly, evaluation and serialization
    patch(P, "build_from_hashes", lambda f: t.wrap_span("phf.build_from_hashes", f))
    patch(P, "_attach_remap", lambda f: t.wrap_span("phf.attach_remap", f))
    patch(P.SicHashPhf, "evaluate_hash", lambda f: t.wrap_hot("phf.evaluate_hash", f))
    patch(P.SicHashPhf, "to_bytes", lambda f: t.wrap_span("phf.to_bytes", f))
    patch(P.SicHashPhf, "from_bytes", lambda f: t.wrap_span("phf.from_bytes", f))

    # cuckoo placement
    def bucket_done(attrs, args, kwargs, result):
        inp = args[0]
        attrs.update(n=len(inp), m=inp.m, seed=result.seed,
                     displacements=result.displacements)
        t.add("cuckoo.keys", len(inp))
        t.add("cuckoo.displacements", result.displacements)
        t.add("cuckoo.seed_retries", result.seed)
        t.high("cuckoo.max_bucket_seed", result.seed)

    def overload_done(attrs, args, kwargs, loads):
        m = args[0]
        placed = int(round(float(loads.sum()) * m))
        attrs.update(m=m, trials=len(loads), placed=placed)
        t.add("cuckoo.overload.placed", placed)

    patch(P, "build_bucket", lambda f: t.wrap_span("cuckoo.build_bucket", f, bucket_done))
    patch(C, "placement_cells", lambda f: t.wrap_hot("cuckoo.placement_check", f))
    patch(C.RattleTable, "insert", lambda f: t.wrap_hot("cuckoo.insert", f, count_true=True))
    patch(C, "incremental_load_experiment",
          lambda f: t.wrap_span("cuckoo.overload", f, overload_done))

    # retrieval: one span per store, named by its bit width
    def store_build(f):
        def build(cls, hashes, values, r, **kwargs):
            with t.span(f"retrieval.build.r{r}", keys=len(values)) as attrs:
                store = f(cls, hashes, values, r, **kwargs)
                retries = store.seed - kwargs.get("base_seed", 0)
                attrs.update(slots=store.num_slots, seed_retries=retries)
            t.add(f"retrieval.keys.r{r}", len(values))
            t.add(f"retrieval.seed_retries.r{r}", retries)
            return store

        return build

    patch(R.RetrievalStore, "build", store_build)
    patch(R.RetrievalStore, "query", lambda f: t.wrap_hot("retrieval.query", f))
    patch(R.RetrievalStore, "query_many", lambda f: t.wrap_hot("retrieval.query_many", f))

    # succinct codecs (metadata and the minimal-mode remap)
    patch(S.EliasFanoSeq, "encode", lambda f: t.wrap_hot("succinct.ef_encode", f))
    patch(S.GolombRiceSeq, "encode", lambda f: t.wrap_hot("succinct.gr_encode", f))
    patch(S.EliasFanoSeq, "access", lambda f: t.wrap_hot("succinct.ef_access", f))
    patch(S.EliasFanoSeq, "to_array", lambda f: t.wrap_hot("succinct.ef_to_array", f))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_metrics(t: Tracer, fn) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass; ``fn`` is the function it built."""

    def s(key: str) -> float:
        return t.total_ns[key] / 1e9

    def per_call(key: str, table=None) -> float:
        table = t.total_ns if table is None else table
        return table[key] / t.calls[key] if t.calls[key] else 0.0

    space = fn.space_breakdown()
    stores = list(fn.stores.values())
    out = {
        "hashing.master_hash_many.s": (s("hashing.master_hash_many"), "s"),
        "hashing.bucket_class_many.s": (s("hashing.bucket_class_many"), "s"),
        "hashing.cell_of_many.s": (s("hashing.cell_of_many"), "s"),
        "hashing.master_hash.ns": (per_call("hashing.master_hash"), "ns"),
        "hashing.bucket_of.ns": (per_call("hashing.bucket_of"), "ns"),
        "hashing.cell_of.ns": (per_call("hashing.cell_of"), "ns"),
        "phf.evaluate_hash.self_ns": (per_call("phf.evaluate_hash", t.self_ns), "ns"),
        "phf.build.self_s": (t.self_ns["phf.build_from_hashes"] / 1e9, "s"),
        "phf.attach_remap.s": (s("phf.attach_remap"), "s"),
        "phf.to_bytes.s": (s("phf.to_bytes"), "s"),
        "phf.from_bytes.s": (s("phf.from_bytes"), "s"),
        "cuckoo.build_bucket.s": (s("cuckoo.build_bucket"), "s"),
        "cuckoo.build_bucket.calls": (t.calls["cuckoo.build_bucket"], "count"),
        "cuckoo.build_bucket.self_s": (t.self_ns["cuckoo.build_bucket"] / 1e9, "s"),
        "cuckoo.insert.s": (s("cuckoo.insert"), "s"),
        "cuckoo.insert.calls": (t.calls["cuckoo.insert"], "count"),
        "cuckoo.insert_success_ratio": (
            t.ok["cuckoo.insert"] / t.calls["cuckoo.insert"] if t.calls["cuckoo.insert"] else 0.0,
            "ratio",
        ),
        "cuckoo.placement_check.s": (s("cuckoo.placement_check"), "s"),
        "cuckoo.displacements": (t.values["cuckoo.displacements"], "count"),
        "cuckoo.displacements_per_key": (
            t.values["cuckoo.displacements"] / t.values["cuckoo.keys"]
            if t.values["cuckoo.keys"] else 0.0,
            "count/key",
        ),
        "cuckoo.seed_retries": (t.values["cuckoo.seed_retries"], "count"),
        "cuckoo.max_bucket_seed": (t.maxima["cuckoo.max_bucket_seed"], "count"),
        "cuckoo.overload.placed": (t.values["cuckoo.overload.placed"], "count"),
    }
    for r in (1, 2, 3):
        out[f"retrieval.build.s.r{r}"] = (s(f"retrieval.build.r{r}"), "s")
        out[f"retrieval.keys.r{r}"] = (t.values[f"retrieval.keys.r{r}"], "count")
        out[f"retrieval.seed_retries.r{r}"] = (t.values[f"retrieval.seed_retries.r{r}"], "count")
    out.update({
        "retrieval.query.ns": (per_call("retrieval.query"), "ns"),
        "retrieval.query_many.s": (s("retrieval.query_many"), "s"),
        "retrieval.slots_per_key": (
            sum(st.num_slots for st in stores) / sum(st.num_keys for st in stores),
            "slots/key",
        ),
        "succinct.ef_encode.s": (s("succinct.ef_encode"), "s"),
        "succinct.gr_encode.s": (s("succinct.gr_encode"), "s"),
        "succinct.ef_access.ns": (per_call("succinct.ef_access"), "ns"),
        "succinct.ef_access.calls": (t.calls["succinct.ef_access"], "count"),
        "succinct.ef_to_array.s": (s("succinct.ef_to_array"), "s"),
        "space.retrieval_bits_per_key": (space.retrieval_bits / space.n, "bits/key"),
        "space.metadata_bits_per_key": (space.metadata_bits / space.n, "bits/key"),
        "space.remap_bits_per_key": (space.remap_bits / space.n, "bits/key"),
    })
    return out
