"""One counter protocol for the simulator's accounting blocks.

Policy decisions, QoS mitigations, EMC fault impact and capacity-search
speculation are each kept as a dataclass of counters that inherits
:class:`Counters`.  One block is one replay's (or one probe's) delta;
fleets, probe sessions and studies merge blocks field by field with
:meth:`Counters.add` / :meth:`Counters.merged` and dump them with
:meth:`Counters.as_dict`, so a new counter needs no merge code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Type, TypeVar

__all__ = ["Counters"]

C = TypeVar("C", bound="Counters")


@dataclass
class Counters:
    """Base of every mergeable accounting dataclass.

    :meth:`add` merges another block of the same class field by field:
    numbers add, lists extend, dicts add per key (new keys in ``other``'s
    order).  A field declared with ``metadata={"merge": "max"}`` keeps the
    larger value; ``metadata={"merge": "last"}`` takes ``other``'s.
    """

    def add(self: C, other: C) -> C:
        """Accumulate ``other`` into this block (e.g. merging fleet shards)."""
        for f in fields(self):
            name = f.name
            mine = getattr(self, name)
            theirs = getattr(other, name)
            merge = f.metadata.get("merge")
            if merge == "max":
                setattr(self, name, max(mine, theirs))
            elif merge == "last":
                setattr(self, name, theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, name, mine + theirs)
        return self

    @classmethod
    def merged(cls: Type[C], blocks: Iterable[Optional[C]]) -> C:
        """A fresh block holding the sum of ``blocks`` (``None``s skipped)."""
        total = cls()
        for block in blocks:
            if block is not None:
                total.add(block)
        return total

    def as_dict(self) -> Dict[str, object]:
        """Canonical plain-data view (determinism checks, BENCH reports).

        Fields in declaration order; dict fields become str-keyed with keys
        in sorted order, so serialised comparisons are independent of
        accumulation order (and of ``PYTHONHASHSEED``); lists are copied.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(key): value[key] for key in sorted(value)}
            elif isinstance(value, list):
                value = list(value)
            out[f.name] = value
        return out
