"""Span tracing of lzgram's public entry points, installed at run time.

Nothing under src/ knows about this: `install` swaps each listed function or
method for a wrapper that times it, and `restore` puts the originals back.
Spans are aggregated in memory per (call, span name) as count, total time and
self time.  Self time is the span's time minus that of the spans inside it; a
call is the parser that was running, or the output gate.  An entry point that
no longer exists, for example after a rename, is reported as missing and its
metrics stay at zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute).  A span name is a layer, or a part of one.
ENTRY_POINTS = (
    ("cli", "lzgram.cli", "main"),
    ("formats", "lzgram.formats", "read_text_file"),
    ("formats", "lzgram.formats", "read_parsing_file"),
    ("formats", "lzgram.formats", "write_parsing_file"),
    ("formats", "lzgram.formats", "dump_parsing"),
    ("model.reference", "lzgram.model", "parse_reference"),
    ("model.verify", "lzgram.model", "verify_parsing"),
    ("naive", "lzgram.naive", "parse_naive"),
    ("fast.lasvegas", "lzgram.fast", "parse_las_vegas_detailed"),
    ("fast.engine", "lzgram.fast", "parse_fast"),
    ("fast.engine", "lzgram.fast", "lzd_parse_fast"),
    ("fast.engine", "lzgram.fast", "lzmw_parse_fast"),
    ("fast.reader", "lzgram.fast", "BlockReader.read_block"),
    ("fast.reader", "lzgram.fast", "BlockReader.has_more"),
    ("avlgrammar.query", "lzgram.avlgrammar", "AvlGrammar.substring_fp"),
    ("avlgrammar.query", "lzgram.avlgrammar", "AvlGrammar.symbol_at"),
    ("avlgrammar.append", "lzgram.avlgrammar", "AvlGrammar.append_literal"),
    ("avlgrammar.append", "lzgram.avlgrammar", "AvlGrammar.append_copy"),
    ("ztrie.search", "lzgram.ztrie", "ZTrie.locate"),
    ("ztrie.insert", "lzgram.ztrie", "ZTrie.insert"),
    ("ztrie.ma", "lzgram.ztrie", "ZTrie.nearest_marked"),
    ("ztrie.ma", "lzgram.ztrie", "MarkedAncestorIndex.mark"),
    ("hashing", "lzgram.hashing", "HashConfig.from_seed"),
    ("hashing", "lzgram.hashing", "fp_concat"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


class Tracer:
    def __init__(self):
        self.call = None  # parser (or "gate") the spans belong to
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.root_time = 0.0  # time inside outermost spans
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_time += dur
                rec = spans[(self.call, name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
        return span

    def install(self) -> None:
        for name, module, attr in ENTRY_POINTS:
            try:
                mod = importlib.import_module(module)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            if owner_name:
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, leaf, wrapped)
                self._undo.append((owner, leaf, raw))
                continue
            # a module-level function is also bound by name in every module
            # that imported it with `from .x import f`
            wrapped = self._wrap(name, raw)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("lzgram")
                        and other.__dict__.get(leaf) is raw):
                    setattr(other, leaf, wrapped)
                    self._undo.append((other, leaf, raw))

    def restore(self) -> None:
        for owner, leaf, raw in reversed(self._undo):
            setattr(owner, leaf, raw)
        self._undo.clear()

    def self_by_call(self) -> dict:
        """Call -> span name -> self time."""
        out: dict = {}
        for (call, name), (_, _, self_time) in sorted(self.spans.items()):
            out.setdefault(call, {})[name] = self_time
        return out

    def totals(self) -> dict:
        """Span name -> [count, total, self], summed over all calls."""
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (_, name), (count, total, self_time) in self.spans.items():
            rec = out[name]
            rec[0] += count
            rec[1] += total
            rec[2] += self_time
        return out
