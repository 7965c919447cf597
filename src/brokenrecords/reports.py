"""Report assembly and serialization for the analysis commands.

Reports are plain dictionaries with a ``meta`` block and a list of
``rows``.  JSON output mirrors that shape directly; CSV output writes the
meta block as leading ``# key=value`` comment lines followed by a flat
table.  Exact rationals serialize as "p/q" strings in both formats so the
two carry identical values.
"""
from __future__ import annotations

import csv
import json
import math
import operator
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence, TextIO

from .errors import CapacityError, UsageError, checked_int
from .exact import (
    exact_pmf_b,
    expected_record_count,
    geometric_limit,
    prob_b0,
    prob_b1,
    remainder_bound,
)
from .montecarlo import (
    EmpiricalPmf,
    SimConfig,
    check_seed_and_workers,
    simulate_b,
    simulate_b_checkpoints,
    simulate_b_suffix,
    simulate_r,
    usable_cpus,
)
from .oracle import oracle_joint, oracle_pmf_r

# converge and gof add the enumerated law up to n = 8 (about 3 ms).
ENUMERATION_MAX_N = 8
MIN_EXPECTED_PER_BIN = 5.0
# 2**-(k+1) is a nonzero float64 up to k = 1073, the smallest subnormal
# being 2**-1074; gof refuses a kmax past it, whose limit bins print as 0.
_GOF_MAX_KMAX = sys.float_info.mant_dig - sys.float_info.min_exp - 1
_FIT_COLUMNS = ("reference", "statistic", "value", "dof", "p_value", "bins")


@contextmanager
def _unlimited_int_digits():
    """Lift Python's cap on int/str conversion (4,300 digits by default).

    Exact means such as H_{n+1} have denominators past the cap from
    n ~ 10^4.  Interpreters before 3.10.7 have no cap and no setter.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def rational_str(x: Fraction) -> str:
    with _unlimited_int_digits():
        return f"{x.numerator}/{x.denominator}"


def build_row(
    n: int,
    k: int,
    *,
    exact_full: Fraction | None = None,
    exact_tail: Fraction | None = None,
    oracle_exact: Fraction | None = None,
    empirical: float | None = None,
) -> dict:
    """One (n, k) line of an analysis table; its keys are the column order.

    ``abs_dev`` is the distance from the limiting mass 2**-(k+1) of the
    best estimate present, preferring enumeration, then the exact law,
    then simulation.  The survivor tail is never an estimate: it is set
    only beside the full exact mass.
    """
    limit = geometric_limit(k)
    if k == 0:
        bound = 0.0
    elif n >= 2:
        bound = remainder_bound(n, k)
    else:
        bound = None
    best = next(
        (x for x in (oracle_exact, exact_full, empirical) if x is not None), None
    )
    return {
        "n": n,
        "k": k,
        "exact_full": exact_full,
        "exact_tail": exact_tail,
        "oracle_exact": oracle_exact,
        "empirical": empirical,
        "limit": float(limit),
        "abs_dev": None if best is None else float(abs(best - limit)),
        "remainder_bound": bound,
    }


def _law_rows(
    n: int,
    top: int,
    *,
    exact: bool = False,
    oracle: bool = False,
    emp: EmpiricalPmf | None = None,
) -> list[dict]:
    """``build_row`` at (n, k) for k = 0..top, with the columns asked for.

    ``exact`` takes the full mass at every k from one ``exact_pmf_b``
    pass, and the survivor tail at k >= 1 off those masses as
    P[B_n > k] = 1/2 - sum_{j=1}^{k} P[B_n = j] (see ``exact``).  Where the
    pass is over its ceiling, which it knows from the sizes alone, only the
    k <= 1 closed forms remain and the tails stay empty.  ``oracle`` adds
    the enumerated law and ``emp`` a simulation's frequencies.
    """
    columns: dict[str, Callable[[int], Fraction | float | None]] = {}
    if exact:
        try:
            law = exact_pmf_b(n, top)
        except CapacityError:
            closed = (prob_b0(n), prob_b1(n))
            columns["exact_full"] = lambda k: closed[k] if k <= 1 else None
        else:
            masses = map(law.prob, range(1, top + 1))
            tails = list(accumulate(masses, operator.sub, initial=law.prob(0)))
            columns["exact_full"] = law.prob
            columns["exact_tail"] = lambda k: tails[k] if k else None
    if oracle:
        columns["oracle_exact"] = oracle_joint(n).marginal_b().prob
    if emp is not None:
        columns["empirical"] = emp.frequency
    return [
        build_row(n, k, **{name: col(k) for name, col in columns.items()})
        for k in range(top + 1)
    ]


def exact_table(n: int, kmax: int | None = None) -> dict:
    """Exact table for one n: full masses and survivor tails at every k.

    Both columns come from one integer pass; past the pass's ceiling the
    k <= 1 closed forms stay and the other cells are empty.
    """
    top = min(kmax, n) if kmax is not None else min(n, 8)
    meta = {"command": "exact", "n": n, "kmax": top}
    return {"meta": meta, "rows": _law_rows(n, top, exact=True)}


def oracle_table(n: int, *, view: str = "b") -> dict:
    """Enumeration table: break-count pmf, record-count pmf, or the joint law."""
    if view not in ("b", "r", "joint"):
        raise UsageError(f"view must be b, r, or joint, got {view!r}")
    meta = {"command": "oracle", "n": n, "view": view}
    if view == "r":
        pmf = oracle_pmf_r(n)
        rows = [
            {"n": n, "r": r, "mass": pmf.prob(r), "mass_float": float(pmf.prob(r))}
            for r in pmf.support()
        ]
        meta["mean"] = pmf.mean()
        return {"meta": meta, "rows": rows}
    if view == "b":
        return {"meta": meta, "rows": _law_rows(n, n, oracle=True)}
    rows = [
        {"n": n, "k": b, "r_prev": r, "mass": p, "mass_float": float(p)}
        for (b, r), p in sorted(oracle_joint(n).mass.items())
    ]
    return {"meta": meta, "rows": rows}


def simulate_table(config: SimConfig, *, stat: str = "b") -> dict:
    """Frequency table from one simulation run.

    For break counts every row carries the limiting mass and the observed
    deviation from it.  For record counts the table lists the observed
    values of r only, with the exact and sample means in the meta block;
    past the exact mean's ceiling it and its deviation are empty.
    """
    if stat not in ("b", "r"):
        raise UsageError(f"stat must be b or r, got {stat!r}")
    if stat == "r":
        try:
            exact_mean = expected_record_count(config.n)
        except CapacityError:
            exact_mean = None
        emp = simulate_r(config)
        rows = [
            {
                "n": config.n,
                "r": r,
                "count": c,
                "frequency": c / config.trials,
            }
            for r, c in sorted(emp.counts.items())
            if c
        ]
        meta = dict(emp.meta)
        meta["command"] = "simulate"
        meta["stat"] = "r"
        meta["sample_mean"] = emp.mean()
        meta["sample_mean_stderr"] = emp.mean_stderr()
        meta["exact_mean"] = exact_mean
        meta["abs_mean_dev"] = (
            None if exact_mean is None else abs(emp.mean() - float(exact_mean))
        )
        return {"meta": meta, "rows": rows}
    emp = simulate_b(config)
    rows = _law_rows(config.n, min(config.kmax, config.n), emp=emp)
    meta = dict(emp.meta)
    meta["command"] = "simulate"
    meta["stat"] = "b"
    meta["overflow"] = emp.overflow
    return {"meta": meta, "rows": rows}


def checkpoint_table(
    config: SimConfig, checkpoints: tuple[int, ...] | None = None
) -> dict:
    """Break-count frequencies at several horizons of shared trajectories.

    Rows use n = checkpoint horizon, since the break count of step t has
    the same law as a final-step count at that horizon.
    """
    table = simulate_b_checkpoints(config, checkpoints)
    rows = [
        row
        for t, emp in sorted(table.items())
        for row in _law_rows(t, min(config.kmax, t), emp=emp)
    ]
    final = table[max(table)]
    meta = dict(final.meta)
    meta["checkpoints"] = sorted(table)
    meta["command"] = "simulate"
    meta["stat"] = "b"
    meta["n"] = config.n
    meta["overflow_by_checkpoint"] = {t: table[t].overflow for t in sorted(table)}
    return {"meta": meta, "rows": rows}


def converge_table(
    n_list: Sequence[int],
    kmax: int,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> dict:
    """Deviation-from-limit table across a sweep of n.

    Each n gets enumeration up to ``ENUMERATION_MAX_N``, otherwise a
    simulation of ``trials`` trajectories.  The simulations share one seed
    across the sweep, so their cells are common-random-number samples, not
    independent ones: a trial's L comes from the same uniform at every n,
    and the k = 0 cell, U > 1/2, is the same count at every sampled n
    (0.49965 at n = 100 and 3,000 for ``--n-list 3,100,3000 --kmax 3
    --trials 20000 --seed 7``).  Full masses and survivor tails come from one exact pass per n,
    and only the k <= 1 closed forms past the pass's ceiling.  A repeated
    n is computed once and its rows repeated in list order.  Every
    argument is checked before any enumeration or draw: each n, the kmax
    and the trials as integers in their domains, the seed and worker count
    by the sampler's rules, even when no n is sampled.  The sampled cells
    come from ``simulate_b_suffix``, which takes any n.  ``workers``
    defaults to ``usable_cpus()`` at call time.
    """
    if not n_list:
        raise UsageError("n_list must name at least one n")
    trials = checked_int("trials", trials)
    n_list = [checked_int("every n", n, None) for n in n_list]
    checked_int("every n", min(n_list), 1)
    workers = usable_cpus() if workers is None else workers
    seed, workers = check_seed_and_workers(seed, workers)
    kmax = checked_int("kmax", kmax)
    configs = {
        n: SimConfig(n=n, trials=trials, seed=seed, kmax=kmax, workers=workers)
        for n in n_list
        if trials > 0 and n > ENUMERATION_MAX_N
    }
    laws = {
        n: _law_rows(
            n,
            min(kmax, n),
            exact=True,
            oracle=n <= ENUMERATION_MAX_N,
            emp=simulate_b_suffix(configs[n]) if n in configs else None,
        )
        for n in dict.fromkeys(n_list)
    }
    meta = {
        "command": "converge",
        "n_list": list(n_list),
        "kmax": kmax,
        "trials": trials,
        "seed": seed,
        "oracle_n": [n for n in n_list if n <= ENUMERATION_MAX_N],
        "simulated_n": [n for n in n_list if n in configs],
    }
    return {"meta": meta, "rows": [dict(row) for n in n_list for row in laws[n]]}


def tv_distance(p: Iterable[float | Fraction], q: Iterable[float | Fraction]) -> float:
    """Total variation distance between two aligned mass vectors."""
    return 0.5 * math.fsum(abs(float(a) - float(b)) for a, b in zip(p, q, strict=True))


def _merge_tail_bins(
    observed: list[int], probs: list[Fraction], trials: int
) -> tuple[list[int], list[Fraction]]:
    """Pool trailing bins until each expected count clears the floor."""
    observed = list(observed)
    probs = list(probs)
    while len(observed) > 2 and float(probs[-1]) * trials < MIN_EXPECTED_PER_BIN:
        probs[-2] += probs[-1]
        probs.pop()
        observed[-2] += observed[-1]
        observed.pop()
    return observed, probs


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P[X >= x] of the chi-square law with integer ``dof``.

    With y = x/2 the tail is the regularized gamma Q(dof/2, y), a finite
    sum for integer dof: e^-y * sum_{i < dof/2} y^i / i! when dof is even,
    and erfc(sqrt(y)) + e^-y * sum_{j=1..(dof-1)/2} y^(j-1/2) / Gamma(j+1/2)
    when it is odd.  Every term is positive and taken in logs, so the
    relative error stays near machine precision far into the tail.
    """
    dof = checked_int("dof", dof, 1)
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = x / 2
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(y))] + [
            math.exp((j - 0.5) * log_y - y - math.lgamma(j + 0.5))
            for j in range(1, (dof + 1) // 2)
        ]
    return math.fsum(terms)


def chi_square_fit(
    observed: Sequence[int], probs: Sequence[Fraction], trials: int
) -> tuple[float, int, float, int]:
    """Pearson statistic of observed counts against exact bin masses.

    Trailing bins pool until every expected count reaches
    ``MIN_EXPECTED_PER_BIN``.  Returns (statistic, dof, p-value, bins).
    """
    obs, ps = _merge_tail_bins(list(observed), list(probs), trials)
    stat = math.fsum(
        (o - float(p) * trials) ** 2 / (float(p) * trials) for o, p in zip(obs, ps)
    )
    dof = len(obs) - 1
    return stat, dof, chi2_sf(stat, dof), len(obs)


def _bins(mass: Callable[[int], int | Fraction], kmax: int, total: int = 1) -> list:
    """``mass`` at 0..kmax, then one tail bin of the rest of ``total``."""
    body = [mass(k) for k in range(kmax + 1)]
    return body + [total - sum(body)]


def gof_report(config: SimConfig) -> dict:
    """Fit of simulated break counts against the limit law and, when the
    enumeration cap allows, against the exact finite-n law.

    The sample comes from ``simulate_b_suffix``, which has no row cap.
    Bins are the pooled support 0..kmax plus one overflow bin.  Each
    reference yields a total variation row and a Pearson chi-square row.
    A kmax over ``_GOF_MAX_KMAX`` is refused with CapacityError before any
    draw: its exact bins cost about kmax**2 and print nothing new.
    """
    if config.kmax > _GOF_MAX_KMAX:
        raise CapacityError(
            f"gof kmax={config.kmax} is over {_GOF_MAX_KMAX}: past it the limit "
            "mass 2**-(k+1) of a bin is 0.0 as a float64"
        )
    emp = simulate_b_suffix(config)
    kmax = config.kmax
    observed = _bins(lambda k: emp.counts.get(k, 0), kmax, emp.trials)
    refs = [("geometric-limit", _bins(geometric_limit, kmax))]
    if config.n <= ENUMERATION_MAX_N:
        opmf = oracle_joint(config.n).marginal_b()
        refs.append(("enumeration", _bins(opmf.prob, kmax)))
    rows = []
    for reference, probs in refs:
        tv = tv_distance([o / config.trials for o in observed], probs)
        stat, dof, pval, bins = chi_square_fit(observed, probs, config.trials)
        for cells in (
            (reference, "tv", tv, None, None, len(observed)),
            (reference, "chi2", stat, dof, pval, bins),
        ):
            rows.append(dict(zip(_FIT_COLUMNS, cells)))
    meta = dict(emp.meta)
    meta["command"] = "gof"
    meta["overflow"] = emp.overflow
    return {"meta": meta, "rows": rows}


def _flatten_meta(meta: dict, prefix: str = "") -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(_flatten_meta(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            out.append((name, ",".join(str(v) for v in value)))
        else:
            out.append((name, _csv_cell(value)))
    return out


def _jsonable(obj):
    """Rationals as "p/q" strings; inf and nan, which JSON lacks, as None."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_json(report: dict, stream: TextIO) -> None:
    json.dump(_jsonable(report), stream, indent=2, allow_nan=False)
    stream.write("\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header(rows: list[dict]) -> list[str]:
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    return header


def _emit_meta(report: dict, stream: TextIO) -> list[dict]:
    """Write the ``# key=value`` header lines and return the report's rows."""
    for key, value in _flatten_meta(report.get("meta", {})):
        stream.write(f"# {key}={value}\n")
    return report.get("rows", [])


def emit_csv(report: dict, stream: TextIO) -> None:
    rows = _emit_meta(report, stream)
    if not rows:
        return
    header = _header(rows)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in header])


def emit_table(report: dict, stream: TextIO) -> None:
    """Aligned plain-text rendering for terminals."""
    rows = _emit_meta(report, stream)
    if not rows:
        return
    header = _header(rows)
    cells = [header] + [
        [_csv_cell(row.get(col)) or "-" for col in header] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
