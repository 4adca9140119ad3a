"""Batch verification families behind the CLI: each family enumerates picklable
case specs, runs them (optionally across a process pool), and collects a
deterministic report.
"""

from __future__ import annotations

import itertools
import os

from .errors import EngineError
from .fock import check_relations
from .multirat import sigma_shift, unit_ratio
from .partitions import Box, Partition, all_partitions, is_addable, n_left
from .reports import CaseResult, Report
from .verma import (det_product_identity, gram_matrix, hook_ratio,
                    jantzen_closed, jantzen_engine, jantzen_evaluate_closed,
                    jantzen_valuation, pair_words, shapovalov_det_closed)
from .weights import Weight, from_alpha_coords
from .weyl import verify_fock_match

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


def _root_lattice_points(rank: int, max_height: int):
    """Nonzero nu in Q+ of height <= max_height, deterministic order."""
    n_alphas = rank - 1
    out = []
    for total in range(1, max_height + 1):
        for combo in itertools.product(range(total + 1), repeat=n_alphas):
            if sum(combo) == total:
                out.append(from_alpha_coords(combo, rank))
    return out


def enumerate_cases(family: str, config: RunConfig) -> list[tuple]:
    if family == "fock-relations":
        return [("fock-relations", config.ell, config.max_size)]
    if family == "theorem51":
        if config.n_rank is not None:
            ranks = [(config.n_rank, config.max_size)]
        else:
            ranks = [(2, 4), (3, 3)]
        return [("theorem51", rank, tuple(nu.coords))
                for rank, h in ranks for nu in _root_lattice_points(rank, h)]
    if family == "prop52":
        out = []
        for rank in (2, 3):
            for nu in _root_lattice_points(rank, 3):
                for k in (1, 2):
                    out.append(("prop52", rank, tuple(nu.coords), k))
        return out
    if family == "lemma62":
        out = []
        for rank in (2, 3):
            for k in range(1, rank + 1):
                out.append(("lemma62", rank, k))
        return out
    if family == "lemma63":
        return [("lemma63", rank, k)
                for rank in (2, 3) for k in range(1, rank + 1)]
    if family == "prop64":
        out = []
        for lam in all_partitions(config.max_size):
            for k in range(1, len(lam) + 2):
                out.append(("prop64", tuple(lam), k))
        return out
    if family == "prop65":
        out = []
        for lam in all_partitions(config.max_size):
            for k in range(1, len(lam) + 2):
                out.append(("prop65", tuple(lam), k, config.ell))
        return out
    if family == "theorem61":
        return [("theorem61", tuple(lam), config.ell)
                for lam in all_partitions(config.max_size)]
    raise ValueError(f"unknown verify family {family!r}")


def run_case(spec: tuple, tolerance: str = "signed") -> CaseResult:
    family = spec[0]
    try:
        return FAMILIES[family][0](spec, tolerance)
    except EngineError as exc:
        return CaseResult(case_id="/".join(str(s) for s in spec), passed=False,
                          detail={"engine_error": str(exc)})


def _case_fock_relations(spec, tolerance):
    _, ell, max_size = spec
    results = check_relations(ell, max_size)
    bad = [r for r in results if not r["passed"]]
    return CaseResult(
        case_id=f"fock-relations/ell={ell}/max_size={max_size}",
        passed=not bad,
        detail={"relations_checked": len(results),
                "failures": bad[:3]})


def _case_theorem51(spec, tolerance):
    _, rank, nu_coords = spec
    nu = Weight(nu_coords)
    gm = gram_matrix(Weight.zero(rank), nu, rank)
    closed = shapovalov_det_closed(-nu, rank)
    parts = unit_ratio(gm.det, closed)
    ok = parts is not None  # any unit of Q(q)[z^{+-1}] is allowed here
    return CaseResult(
        case_id=f"theorem51/rank={rank}/nu={','.join(map(str, nu_coords))}",
        passed=ok,
        detail={"words": len(gm.words), "basis": len(gm.independent),
                "unit": str(parts) if parts else "not a unit"})


def _case_prop52(spec, tolerance):
    _, rank, nu_coords, k = spec
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
    ok = same_words and entry_ok and det_ok
    return CaseResult(
        case_id=f"prop52/rank={rank}/nu={','.join(map(str, nu_coords))}/k={k}",
        passed=ok,
        detail={"matched_words": same_words, "entries_exact": entry_ok,
                "det_exact": det_ok})


def _case_lemma62(spec, tolerance):
    _, rank, k = spec
    eta = Weight.eps(k, rank)
    parts, ks_used = det_product_identity(eta, rank)
    return CaseResult(
        case_id=f"lemma62/rank={rank}/eta=eps{k}",
        passed=_ratio_ok(parts, tolerance),
        detail={"strict_plus_power": _ratio_ok(parts, "strict"),
                "ks_used": ks_used})


def _case_lemma63(spec, tolerance):
    _, rank, k = spec
    engine = jantzen_engine(k, rank)
    closed = jantzen_closed(k, rank)
    parts = unit_ratio(engine, closed)
    return CaseResult(
        case_id=f"lemma63/rank={rank}/k={k}",
        passed=_ratio_ok(parts, tolerance),
        detail={"strict_plus_power": _ratio_ok(parts, "strict"),
                "ratio": str(parts) if parts else "not a unit"})


def _case_prop64(spec, tolerance):
    _, lam_t, k = spec
    lam = Partition(lam_t)
    rank = max(len(lam) + 1, k)
    hook = hook_ratio(lam, k)
    closed = jantzen_evaluate_closed(lam, k, rank)
    if hook.is_zero or closed.is_zero:
        ok = hook.is_zero and closed.is_zero
        detail = {"zero_case": True}
    else:
        ratio = closed / hook
        ok = ratio.is_q_power(tolerance)
        detail = {"zero_case": False, "ratio": ratio.to_text()}
    return CaseResult(
        case_id=f"prop64/lam={','.join(map(str, lam_t)) or '0'}/k={k}",
        passed=ok, detail=detail)


def _case_prop65(spec, tolerance):
    _, lam_t, k, ell = spec
    lam = Partition(lam_t)
    b = Box(k, lam.part(k) + 1)
    if not is_addable(lam, b):
        ok = hook_ratio(lam, k).is_zero
        detail = {"zero_case": True}
    else:
        val = jantzen_valuation(lam, k, ell)  # raises on internal mismatch
        ok = val == n_left(lam, b, ell)
        detail = {"valuation": val}
    return CaseResult(
        case_id=f"prop65/lam={','.join(map(str, lam_t)) or '0'}/k={k}/ell={ell}",
        passed=ok, detail=detail)


def _case_theorem61(spec, tolerance):
    _, lam_t, ell = spec
    lam = Partition(lam_t)
    res = verify_fock_match(lam, ell, tolerance=tolerance)
    return CaseResult(
        case_id=f"theorem61/lam={','.join(map(str, lam_t)) or '0'}/ell={ell}",
        passed=res["passed"],
        detail={"boxes": res["boxes"]})


# Every family in report order: its runner and the RunConfig fields it reads
# (jobs applies to every family).  theorem51 reads max_size only together
# with n_rank.
FAMILIES = {
    "fock-relations": (_case_fock_relations, ("ell", "max_size")),
    "theorem51": (_case_theorem51, ("n_rank", "max_size")),
    "prop52": (_case_prop52, ()),
    "lemma62": (_case_lemma62, ("tolerance",)),
    "lemma63": (_case_lemma63, ("tolerance",)),
    "prop64": (_case_prop64, ("max_size", "tolerance")),
    "prop65": (_case_prop65, ("ell", "max_size")),
    "theorem61": (_case_theorem61, ("ell", "max_size", "tolerance")),
}


def _pool_worker(args):
    spec, tolerance = args
    return run_case(spec, tolerance)


def run_family(family: str, config: RunConfig) -> Report:
    specs = enumerate_cases(family, config)
    workers = min(config.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                cases = list(pool.map(_pool_worker,
                                      [(s, config.tolerance) for s in specs]))
        except OSError as exc:
            raise EngineError(
                f"cannot start {workers} worker processes: {exc}") from exc
    else:
        cases = [run_case(s, config.tolerance) for s in specs]
    return Report(family=family, config=config.echo(family), cases=cases)


def run_all(config: RunConfig):
    """The full acceptance sweep at the documented bounds (yields reports)."""
    def derived(ell, max_size):
        return RunConfig(ell=ell, max_size=max_size, tolerance=config.tolerance,
                         jobs=config.jobs)

    for ell in (2, 3, 4):
        yield run_family("fock-relations", derived(ell, 6))
    yield run_family("theorem51", config)
    yield run_family("prop52", config)
    yield run_family("lemma62", config)
    yield run_family("lemma63", config)
    yield run_family("prop64", derived(config.ell, 6))
    for ell in (2, 3, 4):
        yield run_family("prop65", derived(ell, 6))
    for ell in (2, 3):
        yield run_family("theorem61", derived(ell, 4))
