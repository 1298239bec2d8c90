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

Every solver re-checks the certificate it is about to return with the
independent checkers in the sequences module; a failure there is a bug, not
bad input.  Instances above the size cap are rejected up front because the
searches are exponential; the cap defaults to 24 vertices and can be raised
per call with the cap argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import engine
from .errors import CapacityError, DomainError, InvariantViolation, ParameterError
from .graph import Graph
from .sequences import (
    certify,
    is_cover,
    is_dominating_sequence,
    is_minimal_cover,
    is_total_dominating_sequence,
)

DEFAULT_CAP = 24

INVARIANT_KEYS = (
    "gamma_t",
    "Gamma_t",
    "gamma_tg",
    "gamma_grt",
    "gamma_gr",
    "nu_s",
    "nu_ss",
)

# short CLI tokens for the same invariants
TOKEN_TO_KEY = {
    "gt": "gamma_t",
    "Gt": "Gamma_t",
    "gtg": "gamma_tg",
    "grt": "gamma_grt",
    "gr": "gamma_gr",
    "nus": "nu_s",
    "nuss": "nu_ss",
}


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


def _require_no_isolated(g: Graph, what: str):
    if g.has_isolated_vertex():
        isolated = [v for v in range(g.n) if g.adj[v] == 0]
        raise DomainError(
            f"{what} is undefined on graphs with isolated vertices "
            f"(found {isolated})"
        )


# -- set-style certificates --------------------------------------------------


def is_total_dominating_set(g: Graph, vertices) -> bool:
    """Every vertex has a neighbor among the given distinct vertices."""
    return is_cover(g.adj, g.full_mask, vertices)


def is_minimal_total_dominating_set(g: Graph, vertices) -> bool:
    """Total dominating and no member removable: each has a private neighbor."""
    return is_minimal_cover(g.adj, g.full_mask, vertices)


# -- invariants ---------------------------------------------------------------


def total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_t, witness set as a sorted tuple)."""
    _require_no_isolated(g, "total domination")
    ensure_capacity(g.n, cap)
    value, sel = engine.min_cover(g.open_masks(), g.full_mask)
    certify(is_total_dominating_set(g, sel) and len(sel) == value, "gamma_t")
    return value, tuple(sel)


def upper_total_domination_number(g: Graph, cap: int | None = None):
    """(Gamma_t, a largest minimal total dominating set, sorted)."""
    _require_no_isolated(g, "total domination")
    ensure_capacity(g.n, cap)
    value, sel = engine.max_minimal_cover(g.open_masks(), g.full_mask)
    certify(
        is_minimal_total_dominating_set(g, sel) and len(sel) == value, "Gamma_t"
    )
    return value, tuple(sel)


def game_total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_tg, principal line under optimal play, minimizer first)."""
    _require_no_isolated(g, "the total domination game")
    ensure_capacity(g.n, cap)
    value, trace = engine.game_cover_value(g.open_masks(), g.full_mask)
    certify(
        is_total_dominating_sequence(g, trace) and len(trace) == value, "gamma_tg"
    )
    return value, tuple(trace)


def grundy_total_domination_number(g: Graph, cap: int | None = None):
    """(gamma_grt, a longest total dominating sequence)."""
    _require_no_isolated(g, "a total dominating sequence")
    ensure_capacity(g.n, cap)
    value, seq = engine.max_cover_sequence(g.open_masks(), g.full_mask)
    certify(
        is_total_dominating_sequence(g, seq) and len(seq) == value, "gamma_grt"
    )
    return value, tuple(seq)


def grundy_domination_number(g: Graph, cap: int | None = None):
    """(gamma_gr, a longest dominating sequence).

    Isolated vertices are mathematically fine here (each dominates itself)
    but rejected for uniformity with the open-neighborhood invariants.
    """
    _require_no_isolated(g, "grundy_domination_number")
    ensure_capacity(g.n, cap)
    value, seq = engine.max_cover_sequence(g.closed_masks(), g.full_mask)
    certify(is_dominating_sequence(g, seq) and len(seq) == value, "gamma_gr")
    return value, tuple(seq)


def strong_matching_number(g: Graph, cap: int | None = None):
    """(nu_s, a maximum strong matching as a tuple of edges)."""
    ensure_capacity(g.n, cap)
    value, pairs = engine.max_matching(g.open_masks(), g.n, False)
    certify(_matching_ok(g, pairs, False) and len(pairs) == value, "nu_s")
    return value, tuple(pairs)


def semistrong_matching_number(g: Graph, cap: int | None = None):
    """(nu_ss, a maximum semistrong matching as a tuple of edges)."""
    ensure_capacity(g.n, cap)
    value, pairs = engine.max_matching(g.open_masks(), g.n, True)
    certify(_matching_ok(g, pairs, True) and len(pairs) == value, "nu_ss")
    return value, tuple(pairs)


def _matching_ok(g: Graph, pairs, semistrong: bool) -> bool:
    vmask = 0
    for u, v in pairs:
        if not g.has_edge(u, v):
            return False
        if vmask & ((1 << u) | (1 << v)):
            return False
        vmask |= (1 << u) | (1 << v)
    for u, v in pairs:
        du = (g.adj[u] & vmask).bit_count()
        dv = (g.adj[v] & vmask).bit_count()
        if semistrong:
            if du != 1 and dv != 1:
                return False
        elif du != 1 or dv != 1:
            return False
    return True


def _sequences_of_lengths(g: Graph, lengths, cap: int | None):
    """A certified total dominating sequence of each wanted length that has one."""
    _require_no_isolated(g, "a total dominating sequence")
    ensure_capacity(g.n, cap)
    found = engine.sequence_of_length(g.open_masks(), g.full_mask, lengths)
    for length, seq in found.items():
        certify(
            is_total_dominating_sequence(g, seq) and len(seq) == length,
            "fixed-length sequence",
        )
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

_DISPATCH = {
    "gamma_t": total_domination_number,
    "Gamma_t": upper_total_domination_number,
    "gamma_tg": game_total_domination_number,
    "gamma_grt": grundy_total_domination_number,
    "gamma_gr": grundy_domination_number,
    "nu_s": strong_matching_number,
    "nu_ss": semistrong_matching_number,
}


@dataclass(frozen=True)
class InvariantResult:
    value: int
    witness: tuple
    micros: int


@dataclass(frozen=True)
class InvariantReport:
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
        unknown = [k for k in keys if k not in _DISPATCH]
        if unknown:
            raise ParameterError(f"unknown invariants: {unknown}")
    results = {key: timed_result(_DISPATCH[key], g, cap) for key in keys}
    return InvariantReport(g.n, g.edge_count(), results)
