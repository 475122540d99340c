"""Named counters behind one lock: the serving stack's one stats type.

The service, the gateway and each page cache keep a :class:`Counters`.
Names are declared at construction, each with a fold: a number sums, a
dict sums per key, a name in ``maxima``/``minima`` keeps the largest or
smallest value seen (``None`` until the first; adding ``None`` is a
no-op).  :meth:`Counters.add` folds a whole call's deltas in under one
lock acquisition.  Derived rates are not stored: whoever renders a
:meth:`~Counters.snapshot` computes them from it.
"""

from __future__ import annotations

import threading

_SUM, _KEYED, _MAX, _MIN = "sum", "keyed", "max", "min"


class Counters:
    """Declared counters; adding or reading an undeclared name raises.

    ``Counters(hits=0, by_route={}, peak=0, maxima=("peak",))``; read
    them with :meth:`snapshot` (``counters.snapshot()["hits"]``).
    """

    __slots__ = ("_lock", "_values", "_folds")

    def __init__(self, *, maxima=(), minima=(), **initial: object) -> None:
        folds = {
            name: _KEYED if isinstance(value, dict) else _SUM
            for name, value in initial.items()
        }
        for names, fold in ((maxima, _MAX), (minima, _MIN)):
            for name in names:
                if name not in folds:
                    raise ValueError(f"{fold} fold for undeclared counter {name!r}")
                folds[name] = fold
        self._lock = threading.Lock()
        self._folds = folds
        self._values = {name: _copy(value) for name, value in initial.items()}

    def add(self, **deltas: object) -> None:
        """Fold every delta in under one lock acquisition.

        An undeclared name raises ``KeyError`` (deltas before it in the
        call may already have landed).
        """
        with self._lock:
            _fold(self._folds, self._values, deltas)

    def snapshot(self) -> dict:
        """Every counter's value, read under the lock (dicts copied)."""
        with self._lock:
            return {name: _copy(value) for name, value in self._values.items()}


def _fold(folds: dict, values: dict, deltas: dict) -> None:
    for name, delta in deltas.items():
        fold = folds[name]
        if fold is _SUM:
            values[name] += delta
        elif fold is _KEYED:
            counts = values[name]
            for key, count in delta.items():
                counts[key] = counts.get(key, 0) + count
        elif delta is not None:
            current = values[name]
            if current is None or (
                delta > current if fold is _MAX else delta < current
            ):
                values[name] = delta


def _copy(value: object) -> object:
    return dict(value) if isinstance(value, dict) else value


def ratio(numerator: float, denominator: float, digits: int = 2) -> float:
    """``numerator / denominator`` rounded for rendering; 0.0 when empty."""
    return round(numerator / denominator, digits) if denominator else 0.0
