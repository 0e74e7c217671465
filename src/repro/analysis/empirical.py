"""Measured counterpart of Figure 1: real algorithms on the simulator.

Figure 1 plots formulas; this module reruns its upper-bound curves as
*measurements* — ABD and rate-optimal CAS executed with ν concurrently
active writes, peak storage sampled per simulator step — so the bench
can check the paper's achievability claims against running code, not
just arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.bounds import (
    abd_upper_total_normalized,
    erasure_coding_upper_total_normalized,
    theorem51_total_normalized,
    theorem65_total_normalized,
)
from repro.parallel.supervisor import run_supervised
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.workload.patterns import measure_peak_storage_with_nu_writes


def measured_abd_peak(n: int, f: int, nu: int, value_bits: int = 16) -> float:
    """Peak normalized total storage of ABD with ν active writes."""

    def build(nu_writers: int):
        return build_abd_system(
            n=n, f=f, value_bits=value_bits, num_writers=max(1, nu_writers)
        )

    return measure_peak_storage_with_nu_writes(build, nu).normalized_total(
        value_bits
    )


def measured_cas_peak(n: int, f: int, nu: int) -> float:
    """Peak normalized total storage of rate-optimal CAS (k = N - f).

    Runs the ``optimistic`` failure-free configuration the νN/(N-f)
    curve assumes; value width is k symbols wide enough for N
    evaluation points.
    """
    k = n - f
    m = max(1, (n - 1).bit_length())
    value_bits = k * m

    def build(nu_writers: int):
        return build_cas_system(
            n=n, f=f, value_bits=value_bits, k=k,
            num_writers=max(1, nu_writers), optimistic=True,
        )

    return measure_peak_storage_with_nu_writes(build, nu).normalized_total(
        value_bits
    )


def _measured_point(payload: dict) -> float:
    """One measured (curve, ν) point; the pool task for the sweep."""
    if payload["curve"] == "abd":
        return measured_abd_peak(payload["n"], payload["f"], payload["nu"])
    return measured_cas_peak(payload["n"], payload["f"], payload["nu"])


def empirical_figure1(
    n: int = 21,
    f: int = 10,
    nus: Sequence[int] = (1, 2, 4, 6, 8),
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> Dict[str, List[float]]:
    """Measured ABD/CAS peaks alongside the formula curves.

    Returns series keyed like :func:`repro.analysis.figure1.figure1_series`
    plus ``measured_abd`` and ``measured_cas``.  Each measured (curve,
    ν) point is an independent simulator run, so the sweep fans out
    through the persistent worker pool (``jobs``/``chunk``, default
    serial); point order is fixed, so the series are byte-identical at
    any job count.
    """
    nus = list(nus)
    points = [
        {"curve": curve, "n": n, "f": f, "nu": nu}
        for curve in ("abd", "cas")
        for nu in nus
    ]
    measured = run_supervised(_measured_point, points, jobs=jobs, chunk=chunk)
    return {
        "nu": [float(nu) for nu in nus],
        "theorem51": [theorem51_total_normalized(n, f)] * len(nus),
        "theorem65": [theorem65_total_normalized(n, f, nu) for nu in nus],
        "abd_formula": [abd_upper_total_normalized(f)] * len(nus),
        "ec_formula": [
            erasure_coding_upper_total_normalized(n, f, nu) for nu in nus
        ],
        "measured_abd": measured[: len(nus)],
        "measured_cas": measured[len(nus) :],
    }
