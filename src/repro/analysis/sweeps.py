"""Parameter sweeps backing the Section 2 comparison claims.

* Section 2.2: with ``f`` fixed and ``N`` growing, Theorems 4.1 / 5.1
  approach twice the Singleton-style bound.
* The finite-``|V|`` statements carry ``-log2(N-f)`` style corrections;
  sweeping ``|V|`` shows the normalized exact bounds converging to the
  asymptotic coefficients.
* Section 2.3: with ``f`` proportional to ``N``, Theorems 4.1 / 5.1
  stay ``O(1)`` (so ``o(f)``) while the ABD cost grows like ``f``.

Every sweep row is a pure function of its parameter point, so each
sweep fans rows out through
:func:`repro.parallel.supervisor.run_supervised` (``jobs`` argument /
``REPRO_JOBS``) and the standard grids are
cacheable as a unit via :func:`run_standard_sweeps` — the engine
behind ``repro sweep`` and ``benchmarks/bench_sweeps.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import (
    abd_upper_total_normalized,
    singleton_total_normalized,
    theorem41_total_bits,
    theorem41_total_normalized,
    theorem51_total_bits,
    theorem51_total_normalized,
)
from repro.parallel.cache import RunCache
from repro.parallel.fingerprint import code_fingerprint
from repro.parallel.supervisor import run_supervised
from repro.util.intmath import exact_log2
from repro.util.tables import format_table


def _improvement_row(payload: dict) -> Dict[str, float]:
    """One (N, f) point of the Singleton-improvement sweep."""
    n, f = payload["n"], payload["f"]
    base = singleton_total_normalized(n, f)
    return {
        "n": float(n),
        "singleton": base,
        "theorem41": theorem41_total_normalized(n, f),
        "theorem51": theorem51_total_normalized(n, f),
        "ratio41": theorem41_total_normalized(n, f) / base,
        "ratio51": theorem51_total_normalized(n, f) / base,
    }


def sweep_improvement_ratio(
    f: int,
    n_values: Sequence[int],
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Ratio of the new bounds to the Singleton bound as ``N`` grows."""
    return run_supervised(
        _improvement_row,
        [{"n": n, "f": f} for n in n_values],
        jobs=jobs,
        chunk=chunk,
    )


def _finite_v_row(payload: dict) -> Dict[str, float]:
    """One |V| point of the finite-|V| convergence sweep."""
    n, f, bits = payload["n"], payload["f"], payload["value_bits"]
    v_size = 1 << bits
    log_v = exact_log2(v_size)
    return {
        "value_bits": float(bits),
        "theorem41_exact": theorem41_total_bits(n, f, v_size) / log_v,
        "theorem41_limit": theorem41_total_normalized(n, f),
        "theorem51_exact": theorem51_total_bits(n, f, v_size) / log_v,
        "theorem51_limit": theorem51_total_normalized(n, f),
    }


def sweep_finite_v_convergence(
    n: int,
    f: int,
    value_bits_list: Sequence[int],
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Exact finite-|V| bounds normalized by ``log2 |V|`` vs ``|V|``.

    Shows the ``o(log|V|)`` corrections washing out: each normalized
    exact bound increases toward its asymptotic coefficient.
    """
    return run_supervised(
        _finite_v_row,
        [{"n": n, "f": f, "value_bits": bits} for bits in value_bits_list],
        jobs=jobs,
        chunk=chunk,
    )


def _proportional_row(payload: dict) -> Dict[str, float]:
    """One N point of the f-proportional-to-N sweep."""
    n, f_fraction = payload["n"], payload["f_fraction"]
    f = max(1, int(n * f_fraction))
    if f >= n:
        f = n - 1
    return {
        "n": float(n),
        "f": float(f),
        "theorem51": theorem51_total_normalized(n, f),
        "abd_upper": abd_upper_total_normalized(f),
        "bound_over_f": theorem51_total_normalized(n, f) / f,
    }


def sweep_proportional_f(
    n_values: Sequence[int],
    f_fraction: float = 0.5,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Bounds with ``f ~ f_fraction * N``: new bounds stay O(1), ABD grows.

    This is the regime where the paper notes its universal bounds are
    ``o(f) log2|V|`` — the gap Question 2 and Theorem 6.5 address.
    """
    return run_supervised(
        _proportional_row,
        [{"n": n, "f_fraction": f_fraction} for n in n_values],
        jobs=jobs,
        chunk=chunk,
    )


# -- the standard grids (Figure-adjacent tables of Section 2) ---------------

#: Canonical parameter grids: what ``repro sweep`` and the sweep bench run.
STANDARD_GRIDS: Dict[str, dict] = {
    "improvement": {"f": 10, "n_values": [21, 50, 100, 500, 2000, 10000]},
    "finite-v": {
        "n": 21,
        "f": 10,
        "value_bits_list": [8, 16, 32, 64, 128, 512, 2048],
    },
    "proportional": {
        "n_values": [10, 20, 40, 80, 160, 320, 640],
        "f_fraction": 0.5,
    },
}


def run_standard_sweeps(
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    chunk: Optional[int] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """All three Section 2 sweeps over the standard grids.

    With a ``cache``, each sweep's full row list is stored
    content-addressed under (sweep name, grid, code fingerprint) and
    replayed on later calls without recomputation.
    """
    results: Dict[str, List[Dict[str, float]]] = {}
    runners = {
        "improvement": lambda p: sweep_improvement_ratio(
            p["f"], p["n_values"], jobs=jobs, chunk=chunk
        ),
        "finite-v": lambda p: sweep_finite_v_convergence(
            p["n"], p["f"], p["value_bits_list"], jobs=jobs, chunk=chunk
        ),
        "proportional": lambda p: sweep_proportional_f(
            p["n_values"], p["f_fraction"], jobs=jobs, chunk=chunk
        ),
    }
    for name, params in STANDARD_GRIDS.items():
        key = RunCache.key_for(
            {
                "kind": "sweep",
                "sweep": name,
                "params": params,
                "fingerprint": code_fingerprint(),
            }
        )
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[name] = hit["rows"]
                continue
        rows = runners[name](params)
        if cache is not None:
            cache.put(key, {"rows": rows})
        results[name] = rows
    return results


def format_standard_sweeps(
    results: Dict[str, List[Dict[str, float]]]
) -> str:
    """The three standard sweeps as one report (``results/sweeps.txt``)."""
    improvement = results["improvement"]
    convergence = results["finite-v"]
    proportional = results["proportional"]
    return "\n\n".join(
        [
            "Improvement over the Singleton-style bound (f=10):\n"
            + format_table(
                ("N", "singleton", "thm4.1", "thm5.1", "ratio41", "ratio51"),
                [
                    (int(r["n"]), r["singleton"], r["theorem41"],
                     r["theorem51"], r["ratio41"], r["ratio51"])
                    for r in improvement
                ],
                ".4f",
            ),
            "Finite-|V| convergence (N=21, f=10; normalized exact bounds):\n"
            + format_table(
                ("log2|V|", "thm4.1 exact", "thm4.1 limit", "thm5.1 exact",
                 "thm5.1 limit"),
                [
                    (int(r["value_bits"]), r["theorem41_exact"],
                     r["theorem41_limit"], r["theorem51_exact"],
                     r["theorem51_limit"])
                    for r in convergence
                ],
                ".4f",
            ),
            "f proportional to N (f = N/2): universal bound is o(f):\n"
            + format_table(
                ("N", "f", "thm5.1", "ABD f+1", "thm5.1 / f"),
                [
                    (int(r["n"]), int(r["f"]), r["theorem51"],
                     r["abd_upper"], r["bound_over_f"])
                    for r in proportional
                ],
                ".4f",
            ),
        ]
    )


#: Assertions the sweep tables must satisfy (shared by bench and tests).
def check_standard_sweeps(
    results: Dict[str, List[Dict[str, float]]]
) -> Tuple[bool, str]:
    """Validate the paper's shape claims on standard-grid sweep output."""
    improvement = results["improvement"]
    convergence = results["finite-v"]
    proportional = results["proportional"]
    ratios = [r["ratio41"] for r in improvement]
    if ratios != sorted(ratios) or abs(ratios[-1] - 2.0) >= 0.005:
        return False, "improvement ratio does not approach 2 monotonically"
    exact = [r["theorem41_exact"] for r in convergence]
    if exact != sorted(exact):
        return False, "finite-|V| exact bounds are not monotone"
    if convergence[-1]["theorem41_limit"] - exact[-1] >= 0.02:
        return False, "finite-|V| bounds did not converge to the limit"
    over_f = [r["bound_over_f"] for r in proportional]
    if over_f != sorted(over_f, reverse=True) or over_f[-1] >= 0.02:
        return False, "universal bound is not o(f)"
    return True, "ok"
