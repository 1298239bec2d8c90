"""Exact invariant computations with verified certificates.

Seven invariants are exposed, all exact and all certified:

  gamma_t    minimum size of a total dominating set
  Gamma_t    maximum size of a minimal total dominating set
  gamma_tg   game value: minimizer and maximizer alternate extending a legal
             open-neighborhood sequence, minimizer first
  gamma_grt  longest total dominating sequence
  gamma_gr   longest dominating sequence (closed neighborhoods)
  nu_s       maximum strong (induced) matching
  nu_ss      maximum semistrong matching

Each invariant is one row of _INVARIANTS, in report order: its CLI token,
what is undefined on a graph with an isolated vertex (None for the
matchings), its search kernel and its certificate check.  _solve runs the
one protocol every row shares: reject isolated vertices, enforce the size
cap (24 vertices by default, as the searches are exponential), run the
kernel, and re-check the witness with the independent checkers of the
sequences module, where a failure is a bug, not bad input.

Rows hold lambdas, never the kernel or checker objects, so both are looked
up at each call: tests replace engine kernels and a profiler may rebind the
checkers imported here, and either must reach every solve.

The report records are NamedTuples rather than dataclasses, so that importing
this module, as every compute command does, runs no generated code.
"""

from __future__ import annotations

import time
from functools import partial
from typing import NamedTuple

from . import engine
from .errors import CapacityError, DomainError, InvariantViolation, ParameterError
from .graph import Graph
from .sequences import (
    certify,
    is_cover,
    is_dominating_sequence,
    is_minimal_cover,
    is_strong_matching,
    is_total_dominating_sequence,
)

DEFAULT_CAP = 24


def ensure_capacity(size: int, cap: int | None = None, what: str = "order"):
    """Reject a search whose universe has more than cap (default 24) elements."""
    limit = DEFAULT_CAP if cap is None else cap
    if limit < 1:
        raise ParameterError("cap must be >= 1")
    if size > limit:
        # large estimates stay powers of two: str() refuses ints over 4,300 digits
        mib = 2 ** max(size - 20, 0) if size < 100 else f"2^{size - 20}"
        raise CapacityError(
            f"instance {what} {size} exceeds the exact-search cap {limit}; "
            f"the state table can reach 2^{size} entries (~{mib} MiB). "
            "Raise the cap explicitly if that is acceptable."
        )


def is_total_dominating_set(g: Graph, vertices) -> bool:
    """Every vertex has a neighbor among the given distinct vertices."""
    return is_cover(g.adj, g.full_mask, vertices)


def is_minimal_total_dominating_set(g: Graph, vertices) -> bool:
    """Total dominating and no member removable: each has a private neighbor."""
    return is_minimal_cover(g.adj, g.full_mask, vertices)


# key -> (CLI token, what is undefined with an isolated vertex or None,
#         kernel(g) -> (value, witness), certificate(g, witness) -> bool)
_INVARIANTS = {
    "gamma_t": (
        "gt", "total domination",
        lambda g: engine.min_cover(g.open_masks(), g.full_mask),
        lambda g, w: is_total_dominating_set(g, w),
    ),
    "Gamma_t": (
        "Gt", "total domination",
        lambda g: engine.max_minimal_cover(g.open_masks(), g.full_mask),
        lambda g, w: is_minimal_total_dominating_set(g, w),
    ),
    "gamma_tg": (
        "gtg", "the total domination game",
        lambda g: engine.game_cover_value(g.open_masks(), g.full_mask),
        lambda g, w: is_total_dominating_sequence(g, w),
    ),
    "gamma_grt": (
        "grt", "a total dominating sequence",
        lambda g: engine.max_cover_sequence(g.open_masks(), g.full_mask),
        lambda g, w: is_total_dominating_sequence(g, w),
    ),
    # isolated vertices dominate themselves, but are rejected for uniformity
    "gamma_gr": (
        "gr", "grundy_domination_number",
        lambda g: engine.max_cover_sequence(g.closed_masks(), g.full_mask),
        lambda g, w: is_dominating_sequence(g, w),
    ),
    "nu_s": (
        "nus", None,
        lambda g: engine.max_matching(g.open_masks(), g.n, False),
        lambda g, w: is_strong_matching(g, w, False),
    ),
    "nu_ss": (
        "nuss", None,
        lambda g: engine.max_matching(g.open_masks(), g.n, True),
        lambda g, w: is_strong_matching(g, w, True),
    ),
}

INVARIANT_KEYS = tuple(_INVARIANTS)
TOKEN_TO_KEY = {row[0]: key for key, row in _INVARIANTS.items()}


def _admit(g: Graph, undefined: str | None, cap: int | None):
    """The domain test and the size cap that precede every search."""
    if undefined and g.has_isolated_vertex():
        isolated = [v for v in range(g.n) if g.adj[v] == 0]
        raise DomainError(
            f"{undefined} is undefined on graphs with isolated vertices (found {isolated})"
        )
    ensure_capacity(g.n, cap)


def _solve(key: str, g: Graph, cap: int | None = None):
    """(value, witness tuple) of one row, its witness certified."""
    _, undefined, kernel, certificate = _INVARIANTS[key]
    _admit(g, undefined, cap)
    value, witness = kernel(g)
    certify(certificate(g, witness) and len(witness) == value, key)
    return value, tuple(witness)


def total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_t, witness set as a sorted tuple)."""
    return _solve("gamma_t", g, cap)


def upper_total_domination_number(g: Graph, cap: int | None = None):
    """(Gamma_t, a largest minimal total dominating set, sorted)."""
    return _solve("Gamma_t", g, cap)


def game_total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_tg, principal line under optimal play, minimizer first)."""
    return _solve("gamma_tg", g, cap)


def grundy_total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_grt, a longest total dominating sequence)."""
    return _solve("gamma_grt", g, cap)


def grundy_domination_number(g: Graph, cap: int | None = None):
    """(gamma_gr, a longest dominating sequence)."""
    return _solve("gamma_gr", g, cap)


def strong_matching_number(g: Graph, cap: int | None = None):
    """(nu_s, a maximum strong matching as a tuple of edges)."""
    return _solve("nu_s", g, cap)


def semistrong_matching_number(g: Graph, cap: int | None = None):
    """(nu_ss, a maximum semistrong matching as a tuple of edges)."""
    return _solve("nu_ss", g, cap)


def _sequences_of_lengths(g: Graph, lengths, cap: int | None):
    """Total dominating sequences of the wanted lengths, checked as gamma_grt's."""
    _, undefined, _, certificate = _INVARIANTS["gamma_grt"]
    _admit(g, undefined, cap)
    found = engine.sequence_of_length(g.open_masks(), g.full_mask, lengths)
    for length, seq in found.items():
        certify(certificate(g, seq) and len(seq) == length, "fixed-length sequence")
    return {length: tuple(seq) for length, seq in found.items()}


def total_dominating_sequence_of_length(g: Graph, length: int, cap: int | None = None):
    """A total dominating sequence of exactly the given length, or None."""
    return _sequences_of_lengths(g, (length,), cap).get(length)


def interpolation_witnesses(g: Graph, rep: InvariantReport, cap: int | None = None):
    """One total dominating sequence for every achievable length.

    rep is a report on g holding gamma_t and gamma_grt.  One search finds a
    witness for every length between the two inclusive, and each witness is
    certified.  A gap would contradict a proven interpolation property, so
    a missing length raises InvariantViolation.
    """
    lo, hi = rep.value("gamma_t"), rep.value("gamma_grt")
    out = _sequences_of_lengths(g, range(lo, hi + 1), cap)
    for length in range(lo, hi + 1):
        if length not in out:
            raise InvariantViolation(
                f"no total dominating sequence of length {length} although "
                f"{lo} and {hi} are both achievable"
            )
    return out


# -- aggregated report ---------------------------------------------------------

class InvariantResult(NamedTuple):
    value: int
    witness: tuple
    micros: int


class InvariantReport(NamedTuple):
    n: int
    edge_count: int
    results: dict[str, InvariantResult]

    def value(self, key: str) -> int:
        return self.results[key].value

    def witness(self, key: str) -> tuple:
        return self.results[key].witness

    def to_json_dict(self) -> dict:
        inv = {}
        for key, r in self.results.items():
            witness = [list(w) if isinstance(w, tuple) else w for w in r.witness]
            inv[key] = {"value": r.value, "witness": witness, "micros": r.micros}
        return {"n": self.n, "edges": self.edge_count, "invariants": inv}


def timed_result(solve, item, cap: int | None = None) -> InvariantResult:
    """Run solve(item, cap), which returns (value, witness), and time it."""
    t0 = time.perf_counter_ns()
    value, witness = solve(item, cap)
    return InvariantResult(value, witness, (time.perf_counter_ns() - t0) // 1000)


def compute_report(g: Graph, keys=None, cap: int | None = None) -> InvariantReport:
    """Compute the requested invariants (all seven by default) with timings."""
    if keys is None:
        keys = INVARIANT_KEYS
    else:
        unknown = [k for k in keys if k not in _INVARIANTS]
        if unknown:
            raise ParameterError(f"unknown invariants: {unknown}")
    # the rows run directly, so a rebound public solver never wraps a report's solve
    results = {key: timed_result(partial(_solve, key), g, cap) for key in keys}
    return InvariantReport(g.n, g.edge_count(), results)
