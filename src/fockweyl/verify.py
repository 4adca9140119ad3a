"""Batch verification families behind the CLI: each family enumerates picklable
case specs, runs them (optionally across one process pool per command), and
collects a deterministic report.

The modules compute and the runners here compare: theorem61's runner sets
the oracle's norms (`weyl`) against the Fock columns (`fock._columns`) and
the Verma evaluations (`verma`), so the oracle imports none of them.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable
from typing import NamedTuple

from . import fock
from .errors import EngineError
from .fock import check_relations
from .multirat import sigma_shift, unit_ratio
from .partitions import (Box, Partition, all_partitions, color, content,
                         is_addable, n_left)
from .reports import CaseResult, Report
from .ring import QFrac, power_match, val_cyclotomic
from .verma import (_hook_parts, _jantzen_closed_parts, det_product_identity,
                    gram_matrix, hook_ratio, jantzen_closed, jantzen_engine,
                    jantzen_valuation, pair_words, shapovalov_det_closed)
from .weights import Weight, from_alpha_coords
from .weyl import mu_singular_vectors

# How far a ratio may be from 1: q^m, +-q^m, or any unit.
TOLERANCES = ("strict", "signed", "unit")


class RunConfig:
    """Validated bounds and modes for the verification families."""

    def __init__(self, ell: int = 2, n_rank: int | None = None,
                 max_size: int = 4, tolerance: str = "signed", jobs: int = 1):
        # n_rank: theorem51 only, None for ranks 2 and 3; tolerance: one of
        # TOLERANCES
        if ell < 2:
            raise ValueError("ell must be >= 2")
        if n_rank is not None and n_rank < 2:
            raise ValueError("rank must be >= 2")
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        if tolerance not in TOLERANCES:
            raise ValueError(f"unknown tolerance mode {tolerance!r}")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.ell = ell
        self.n_rank = n_rank
        self.max_size = max_size
        self.tolerance = tolerance
        self.jobs = jobs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def echo(self, family: str) -> dict:
        cfg = {"family": family, "ell": self.ell, "max_size": self.max_size,
               "tolerance": self.tolerance}
        if self.n_rank is not None and family == "theorem51":
            cfg["n_rank"] = self.n_rank
        return cfg


def _ratio_ok(parts, tolerance: str) -> bool:
    """Whether a unit_ratio result (None: not a unit) meets the tolerance."""
    return parts is not None and parts.is_q_power(tolerance)


def _root_lattice_points(rank: int, max_height: int) -> list[tuple]:
    """Coordinates of each nonzero nu in Q+ of height <= max_height, by
    height, then lexicographically in the simple-root coordinates: the
    compositions of each height h into rank - 1 parts, read off the rank - 2
    bar positions among h + rank - 2 slots, which come in the same order."""
    out = []
    for total in range(1, max_height + 1):
        slots = total + rank - 2
        for bars in itertools.combinations(range(slots), rank - 2):
            ends = (-1, *bars, slots)
            combo = [b - a - 1 for a, b in zip(ends, ends[1:])]
            out.append(from_alpha_coords(combo, rank).coords)
    return out


def _theorem51_cases(config: RunConfig) -> list[tuple]:
    ranks = ([(config.n_rank, config.max_size)] if config.n_rank is not None
             else [(2, 4), (3, 3)])
    return [(rank, nu) for rank, h in ranks
            for nu in _root_lattice_points(rank, h)]


def _rank_k_cases(config: RunConfig) -> list[tuple]:
    return [(rank, k) for rank in (2, 3) for k in range(1, rank + 1)]


def _lam_k_cases(config: RunConfig) -> list[tuple]:
    """(lam, k) for each partition of size <= max_size and k <= len(lam) + 1."""
    return [(tuple(lam), k) for lam in all_partitions(config.max_size)
            for k in range(1, len(lam) + 2)]


def _fock_relations(ell, max_size, tolerance):
    results = check_relations(ell, max_size)
    bad = [r for r in results if not r["passed"]]
    return not bad, {"relations_checked": len(results), "failures": bad[:3]}


def _theorem51(rank, nu_coords, tolerance):
    nu = Weight(nu_coords)
    gm = gram_matrix(Weight.zero(rank), nu, rank)
    parts = unit_ratio(gm.det, shapovalov_det_closed(-nu, rank))
    return parts is not None, {  # any unit of Q(q)[z^{+-1}] is allowed here
        "words": len(gm.words), "basis": len(gm.independent),
        "unit": str(parts) if parts else "not a unit"}


def _prop52(rank, nu_coords, k, tolerance):
    nu = Weight(nu_coords)
    mu, zero = Weight.eps(k, rank), Weight.zero(rank)
    g0 = gram_matrix(zero, nu, rank)
    gk = gram_matrix(mu, nu, rank)
    same_words = g0.words == gk.words and g0.independent == gk.independent
    # all words, not only the good ones: entries are pairings over
    # (q - q^{-1})^m, sigma fixes q, and the pairing is symmetric
    entry_ok = all(
        pair_words(a, b, mu, rank) == pair_words(a, b, zero, rank).sigma(mu)
        for t, a in enumerate(g0.words) for b in g0.words[t:])
    det_ok = gk.det == sigma_shift(g0.det, mu)
    return same_words and entry_ok and det_ok, {
        "matched_words": same_words, "entries_exact": entry_ok,
        "det_exact": det_ok}


def _lemma62(rank, k, tolerance):
    parts, ks_used = det_product_identity(Weight.eps(k, rank), rank)
    return _ratio_ok(parts, tolerance), {
        "strict_plus_power": _ratio_ok(parts, "strict"), "ks_used": ks_used}


def _lemma63(rank, k, tolerance):
    parts = unit_ratio(jantzen_engine(k, rank), jantzen_closed(k, rank))
    return _ratio_ok(parts, tolerance), {
        "strict_plus_power": _ratio_ok(parts, "strict"),
        "ratio": str(parts) if parts else "not a unit"}


def _prop64(lam_t, k, tolerance):
    lam = Partition(lam_t)
    hn, hd = hook = _hook_parts(lam, k)
    cn, cd = closed = _jantzen_closed_parts(lam, k)
    ok = power_match(closed, hook, tolerance)
    if hn.is_zero or cn.is_zero:
        return ok, {"zero_case": True}
    # the report shows the ratio: reduced once, here
    return ok, {"zero_case": False, "ratio": QFrac(cn * hd, cd * hn).to_text()}


def _prop65(lam_t, k, ell, tolerance):
    lam = Partition(lam_t)
    b = Box(k, lam.part(k) + 1)
    if not is_addable(lam, b):
        return hook_ratio(lam, k).is_zero, {"zero_case": True}
    val = jantzen_valuation(lam, k, ell)  # raises on internal mismatch
    return val == n_left(lam, b, ell), {"valuation": val}


def _theorem61(lam_t, ell, tolerance):
    """Per addable row, the oracle norm's cyclotomic valuation against the
    box statistic and mu's v-exponent in F's column of the box's color (mu
    in no other color), and the norm against the closed form and the hook
    ratio up to +-q^m.  Each ket of F's columns must be one of these mu."""
    lam = Partition(lam_t)
    F = fock._columns(lam, ell).F
    boxes, seen = [], set()
    for sv in mu_singular_vectors(lam, len(lam) + 1):
        b = Box(sv.row, lam.part(sv.row) + 1)
        col = color(b, ell)
        mu = lam.add_box(b)
        seen.add(mu)
        val = val_cyclotomic(sv.norm, 2 * ell)
        nl = n_left(lam, b, ell)
        # mu's coefficient in F_col |lam> is the sum of v^e over these
        exps = [e for nu, e in F.get(col, ()) if nu == mu]
        wrong_residue = any(nu == mu for i, c in F.items() if i != col
                            for nu, _ in c)
        norm = (sv.norm.num, sv.norm.den)
        closed_ok = power_match(norm, _jantzen_closed_parts(lam, sv.row),
                                tolerance)
        hook_ok = power_match(norm, _hook_parts(lam, sv.row), tolerance)
        ok = (exps == [val] and val == nl and not wrong_residue
              and closed_ok and hook_ok)
        boxes.append({
            "row": b.row, "col": b.col, "content": content(b), "color": col,
            "n_left": nl, "valuation": val,
            "fock_exponent": exps[0] if len(set(exps)) == 1 else None,
            "r": sv.norm.to_text(), "matches_closed_form": closed_ok,
            "matches_hook_ratio": hook_ok, "pass": ok})
    for i in sorted(F):
        for mu in sorted({nu for nu, _ in F[i]} - seen,
                         key=lambda nu: (nu.size, nu)):
            boxes.append({"unexpected": list(mu), "color": i, "pass": False})
    return all(box["pass"] for box in boxes), {"boxes": boxes}


class Family(NamedTuple):
    """One verification family.  `case_id` formats the spec fields after the
    family name, `cases(config)` lists those fields, `run(*fields,
    tolerance=...)` returns (passed, detail), and `reads` names the RunConfig
    fields the family reads (jobs applies to every family)."""
    case_id: str
    cases: Callable[[RunConfig], list[tuple]]
    run: Callable[..., tuple[bool, dict]]
    reads: tuple[str, ...]


# Every family in report order (theorem51 reads max_size only with n_rank).
FAMILIES = {
    "fock-relations": Family("fock-relations/ell={}/max_size={}",
                             lambda config: [(config.ell, config.max_size)],
                             _fock_relations, ("ell", "max_size")),
    "theorem51": Family("theorem51/rank={}/nu={}", _theorem51_cases,
                        _theorem51, ("n_rank", "max_size")),
    "prop52": Family("prop52/rank={}/nu={}/k={}",
                     lambda config: [(rank, nu, k) for rank in (2, 3)
                                     for nu in _root_lattice_points(rank, 3)
                                     for k in (1, 2)],
                     _prop52, ()),
    "lemma62": Family("lemma62/rank={}/eta=eps{}", _rank_k_cases, _lemma62,
                      ("tolerance",)),
    "lemma63": Family("lemma63/rank={}/k={}", _rank_k_cases, _lemma63,
                      ("tolerance",)),
    "prop64": Family("prop64/lam={}/k={}", _lam_k_cases, _prop64,
                     ("max_size", "tolerance")),
    "prop65": Family("prop65/lam={}/k={}/ell={}",
                     lambda config: [(*lam_k, config.ell)
                                     for lam_k in _lam_k_cases(config)],
                     _prop65, ("ell", "max_size")),
    "theorem61": Family("theorem61/lam={}/ell={}",
                        lambda config: [(tuple(lam), config.ell)
                                        for lam in all_partitions(config.max_size)],
                        _theorem61, ("ell", "max_size", "tolerance")),
}


def enumerate_cases(family: str, config: RunConfig) -> list[tuple]:
    if family not in FAMILIES:
        raise ValueError(f"unknown verify family {family!r}")
    return [(family, *fields) for fields in FAMILIES[family].cases(config)]


def _id_field(field) -> str:
    """A spec field in a case id: a tuple comma-joined, `0` when empty."""
    return (",".join(map(str, field)) or "0") if isinstance(field, tuple) \
        else field


def run_case(spec: tuple, tolerance: str = "signed") -> CaseResult:
    row, fields = FAMILIES[spec[0]], spec[1:]
    try:
        passed, detail = row.run(*fields, tolerance=tolerance)
    except EngineError as exc:
        passed, detail = False, {"engine_error": str(exc)}
    return CaseResult(case_id=row.case_id.format(*map(_id_field, fields)),
                      passed=passed, detail=detail)


def _run_task(task):
    spec, tolerance = task
    return run_case(spec, tolerance)


def _run_plan(plan: list, jobs: int):
    """Yield the Report of each (family, RunConfig) pair of the plan, in
    order, each once its cases have run.  With more than one worker every
    case of the plan runs in one process pool, started before any case; chunks
    of 1/16 of a worker's share (at least 1) save small cases round trips."""
    steps = [(family, config, enumerate_cases(family, config))
             for family, config in plan]
    tasks = [(spec, config.tolerance) for _, config, specs in steps
             for spec in specs]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)

    def reports(results):  # an iterator over the plan's case results
        for family, config, specs in steps:
            yield Report(family=family, config=config.echo(family),
                         cases=list(itertools.islice(results, len(specs))))

    if workers <= 1:
        yield from reports(map(_run_task, tasks))
        return
    from concurrent.futures import ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (16 * workers))
            yield from reports(iter(pool.map(_run_task, tasks, chunksize=chunk)))
    except OSError as exc:
        raise EngineError(
            f"cannot start {workers} worker processes: {exc}") from exc


def run_family(family: str, config: RunConfig) -> Report:
    [report] = _run_plan([(family, config)], config.jobs)
    return report


def run_all(config: RunConfig):
    """The full acceptance sweep at the documented bounds: a lazy iterator
    of reports."""
    def derived(ell, max_size):
        return RunConfig(ell=ell, max_size=max_size, tolerance=config.tolerance)

    plan = [("fock-relations", derived(ell, 6)) for ell in (2, 3, 4)]
    plan += [(family, config)
             for family in ("theorem51", "prop52", "lemma62", "lemma63")]
    plan.append(("prop64", derived(config.ell, 6)))
    plan += [("prop65", derived(ell, 6)) for ell in (2, 3, 4)]
    plan += [("theorem61", derived(ell, 4)) for ell in (2, 3)]
    return _run_plan(plan, config.jobs)
