"""NWS-A1: forecaster-quality comparison (§3.6).

"It is important to recognize that a schedule is only as good as the
accuracy of its underlying predictions."  This ablation measures each
forecaster's one-step MSE on traces from the three load-process families
used in the testbeds (AR(1), Markov on/off, spiky), plus the adaptive
ensemble, demonstrating why the NWS runs a *battery* of predictors: no
single forecaster wins on every process, while the ensemble tracks the
per-process winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nws.ensemble import AdaptiveEnsemble
from repro.nws.forecasters import default_forecaster_family
from repro.runner import ParallelRunner, Task
from repro.sim.load import AR1Load, LoadProcess, MarkovLoad, SpikeLoad
from repro.util.rng import RngStream
from repro.util.tables import Table

__all__ = ["NwsForecastResult", "run_nws_comparison", "standard_processes"]


def standard_processes(seed: int) -> dict[str, LoadProcess]:
    """The three load-process families of the testbeds."""
    rng = RngStream(seed, "nws-exp")
    return {
        "ar1": AR1Load(mean=0.6, phi=0.92, sigma=0.08, rng=rng.child("ar1")),
        "markov": MarkovLoad(idle_level=0.9, busy_level=0.3, p_busy=0.1,
                             p_idle=0.25, rng=rng.child("markov")),
        "spike": SpikeLoad(base=0.95, spike_level=0.1, p_spike=0.06,
                           p_recover=0.5, rng=rng.child("spike")),
    }


@dataclass
class NwsForecastResult:
    """Per-(process, forecaster) MSEs; ensemble included as 'ensemble'."""

    nsamples: int
    mse: dict[str, dict[str, float]] = field(default_factory=dict)

    def table(self) -> Table:
        processes = sorted(self.mse)
        forecasters = sorted(self.mse[processes[0]])
        t = Table(
            ["forecaster"] + [f"MSE {p}" for p in processes],
            title=f"NWS-A1 — one-step forecast MSE over {self.nsamples} samples",
        )
        for f in forecasters:
            t.add(f, *[self.mse[p][f] for p in processes])
        return t

    def best_for(self, process: str) -> str:
        """Best non-ensemble forecaster for a process."""
        rows = {f: m for f, m in self.mse[process].items() if f != "ensemble"}
        return min(rows, key=rows.get)  # type: ignore[arg-type]

    def ensemble_regret(self, process: str) -> float:
        """Ensemble MSE over best single-forecaster MSE (1.0 = matches best)."""
        best = self.mse[process][self.best_for(process)]
        if best == 0.0:
            return 1.0
        return self.mse[process]["ensemble"] / best


def _score_trial(pname: str, member: int | str, nsamples: int, seed: int) -> tuple[str, float]:
    """Score one forecaster (family index, or "ensemble") on one load family.

    Regenerates the trace from ``(seed, pname)`` — deterministic, so every
    member of a family scores against the identical series no matter which
    worker runs it.  Returns ``(forecaster_name, mse)``.
    """
    trace = standard_processes(seed)[pname].sample(nsamples)
    if member == "ensemble":
        name = "ensemble"
        staged, _, _ = AdaptiveEnsemble().update_many(trace)
    else:
        forecaster = default_forecaster_family()[member]
        name = forecaster.name
        staged = forecaster.update_many(trace)
    # The forecast staged after each value predicts the next one.
    err = 0.0
    for predicted, value in zip(staged, trace[1:]):
        err += (predicted - value) ** 2
    return name, err / (len(trace) - 1)


def run_nws_comparison(
    nsamples: int = 600, seed: int = 1996, workers: int | None = 1
) -> NwsForecastResult:
    """Score every forecaster (and the ensemble) on every load family."""
    pnames = list(standard_processes(seed))
    members: list[int | str] = list(range(len(default_forecaster_family())))
    members.append("ensemble")

    tasks = [
        Task(
            _score_trial,
            dict(pname=pname, member=member, nsamples=nsamples, seed=seed),
            key=(pname, member),
        )
        for pname in pnames
        for member in members
    ]
    scored = ParallelRunner(workers).run(tasks)

    result = NwsForecastResult(nsamples=nsamples)
    per_process = len(members)
    for i, pname in enumerate(pnames):
        chunk = scored[i * per_process:(i + 1) * per_process]
        result.mse[pname] = {name: mse for name, mse in chunk}
    return result
