"""The benchmark's workloads: inputs from a seed, one timed pass each.

Every workload builds its whole input list in :meth:`Workload.setup`
(the part ``setup_s`` times), then each pass hands exactly those inputs
to one public entry point of the program — ``repro.audit.run_audit``
or ``repro.experiments.figure7.run_figure7`` — in the chunks of
:meth:`Workload.chunks`, and the pass's time is the time inside those
calls (for ``shrink-flock``, together with the warm-start image build
that feeds it).  Outputs are reduced to a
canonical sha256 (:meth:`Workload.digest`) that must repeat on every
pass, match the pinned value for pinned seeds, and, for the warm-start
+ flock mode, match a cold serial ``run_audit`` of the same input list.

Imports of the program happen inside the methods, so this module loads
before ``src`` is on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, List, Optional

#: Figure 7 at the ``repro fig7`` default shape (``--full`` off).
FIG7_RATES = (60, 100, 140, 200)
FIG7_HORIZON = 20_000.0
FIG7_REPLICATIONS = 1
FIG7_SCHEMES = 2  # coordinated vs write-through


def _sha(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def audit_digest(report) -> str:
    """Canonical digest of an audit: sorted violations (schedule and
    findings), errors, and shrunk minimal schedules."""
    def canon(entries):
        return sorted(json.dumps(e, sort_keys=True) for e in entries)
    return _sha({
        "schedules_run": report.schedules_run,
        "violations": canon(report.violations),
        "errors": canon(report.errors),
        "shrunk": canon({"original": e["original"], "schedule": e["schedule"]}
                        for e in report.shrunk),
    })


@dataclasses.dataclass
class Inputs:
    """One workload's generated inputs."""

    config: Any
    schedules: Optional[List[Any]] = None
    timeline: Any = None

    def digest(self) -> str:
        """Identity of the input list (probes and passes must agree)."""
        if self.schedules is None:
            return _sha(dataclasses.asdict(self.config))
        return _sha({"config": self.config.to_dict(),
                     "schedules": [s.to_dict() for s in self.schedules]})


class Workload:
    """Base: an audit campaign on one input list."""

    name = ""
    default_seed = 7  # the ``repro audit`` default
    scheme = "coordinated"
    schedules = 120
    kwargs: Dict[str, Any] = {}

    def setup(self, seed: int) -> Inputs:
        from repro.audit import AuditConfig, generate_schedules, \
            reference_timeline
        config = AuditConfig(scheme=self.scheme, seed=seed,
                             schedules=self.schedules)
        timeline = reference_timeline(config)
        schedules = generate_schedules(config, timeline=timeline)
        return Inputs(config=config, schedules=schedules, timeline=timeline)

    def run(self, inputs: Inputs):
        """The timed call."""
        from repro.audit import run_audit
        return run_audit(inputs.config, schedules=inputs.schedules,
                         timeline=inputs.timeline, **self.kwargs)

    def chunks(self, inputs: Inputs) -> List[Inputs]:
        """The input list cut into the pieces a timed pass hands to the
        entry point one call each; :meth:`merge` of their outputs is the
        output of one call on the whole list."""
        return [inputs]

    def merge(self, outputs: List[Any]):
        return outputs[0]

    def reference(self, inputs: Inputs) -> Optional[str]:
        """Digest of a cold serial ``run_audit`` of the same inputs, for
        workloads whose mode is not already cold serial."""
        return None

    def digest(self, output) -> str:
        return audit_digest(output)

    def operations(self, inputs: Inputs) -> int:
        """Operations one pass attempts (schedules)."""
        return len(inputs.schedules)

    def failures(self, output) -> int:
        return len(output.errors)

    def check(self, output) -> List[str]:
        """Problems with one pass's output that no digest can see."""
        return []


class AuditCold(Workload):
    name = "audit-cold"
    #: Schedules per timed ``run_audit`` call.  Cold serial schedules
    #: are independent, so the pieces' reports concatenate to the
    #: whole campaign's report.
    chunk = 5

    def chunks(self, inputs: Inputs) -> List[Inputs]:
        todo = inputs.schedules
        return [dataclasses.replace(inputs, schedules=todo[i:i + self.chunk])
                for i in range(0, len(todo), self.chunk)]

    def merge(self, outputs: List[Any]):
        return dataclasses.replace(
            outputs[0],
            schedules_run=sum(o.schedules_run for o in outputs),
            violations=[v for o in outputs for v in o.violations],
            errors=[e for o in outputs for e in o.errors],
            shrunk=[e for o in outputs for e in o.shrunk],
            wall_seconds=sum(o.wall_seconds for o in outputs))

    def check(self, output) -> List[str]:
        # Whatever the campaign flags must replay as a violation (the
        # ``repro audit --replay`` diagnosis path).
        from repro.audit import FaultSchedule, audit_schedule
        problems = []
        for entry in output.violations:
            schedule = FaultSchedule.from_dict(entry["schedule"])
            if not audit_schedule(output.config, schedule, fail_fast=False):
                problems.append(f"{schedule.label} does not replay as a "
                                f"violation")
        return problems


class ShrinkFlock(Workload):
    name = "shrink-flock"
    scheme = "naive"
    schedules = 24
    kwargs = {"warmstart": True, "flock": True, "shrink": True}
    #: The campaign is always the one ``repro audit --scheme naive``
    #: runs by default: how many violators a campaign seed yields (0 to
    #: 4) swings shrink work 3.4x between seeds, so the workload seed
    #: only permutes this list (flock plans by prefix and divergence,
    #: so the order must not change the outcome).
    campaign_seed = 7

    def setup(self, seed: int) -> Inputs:
        import random
        from repro.warmstart import share_schedule_seeds
        inputs = super().setup(self.campaign_seed)
        inputs.schedules = share_schedule_seeds(inputs.config,
                                                inputs.schedules)
        random.Random(seed).shuffle(inputs.schedules)
        return inputs

    def run(self, inputs: Inputs):
        """Build each shared prefix's image set into a fresh store, as
        ``run_audit(warmstart=True, flock=True, workers>1)`` does before
        it fans out, so the flock templates thaw from warm-start images
        instead of a direct reference run."""
        from repro.audit import run_audit
        from repro.warmstart import ImageStore, WarmRunner
        store = ImageStore()
        builder = WarmRunner(inputs.config, store=store,
                             timeline=inputs.timeline)
        builder.plan(inputs.schedules)
        for schedule in inputs.schedules:
            builder.ensure_images(schedule)
        return run_audit(inputs.config, schedules=inputs.schedules,
                         timeline=inputs.timeline, image_store=store,
                         **self.kwargs)

    def reference(self, inputs: Inputs) -> Optional[str]:
        from repro.audit import run_audit
        return audit_digest(run_audit(inputs.config,
                                      schedules=inputs.schedules,
                                      shrink=True, flock=False))


class Fig7Sweep(Workload):
    name = "fig7-sweep"
    default_seed = 2001  # Figure7Config.seed

    def setup(self, seed: int) -> Inputs:
        from repro.experiments.figure7 import Figure7Config
        return Inputs(config=Figure7Config(
            internal_rates=FIG7_RATES, horizon=FIG7_HORIZON,
            replications=FIG7_REPLICATIONS, seed=seed))

    def run(self, inputs: Inputs):
        from repro.experiments.figure7 import run_figure7
        return run_figure7(inputs.config)

    def chunks(self, inputs: Inputs) -> List[Inputs]:
        # Each rate is its own point with its own replication seeds.
        return [Inputs(config=dataclasses.replace(inputs.config,
                                                  internal_rates=(rate,)))
                for rate in inputs.config.internal_rates]

    def merge(self, outputs: List[Any]):
        return [point for points in outputs for point in points]

    def digest(self, output) -> str:
        return _sha([dataclasses.asdict(p) for p in output])

    def operations(self, inputs: Inputs) -> int:
        # One simulated crash schedule per (rate, scheme, replication).
        config = inputs.config
        return len(config.internal_rates) * FIG7_SCHEMES * config.replications

    def failures(self, output) -> int:
        return 0  # a replication that raises aborts the whole sweep

    def check(self, output) -> List[str]:
        # The paper's headline: coordination rolls back less at every rate.
        problems = []
        for p in output:
            values = (p.e_d_co, p.e_d_wt, p.model_co, p.model_wt)
            if not (p.n_co and p.n_wt and all(map(math.isfinite, values))):
                problems.append(f"rate {p.internal_rate}: empty or "
                                f"non-finite point")
            elif not p.e_d_co < p.e_d_wt:
                problems.append(f"rate {p.internal_rate}: E[D_co] "
                                f"{p.e_d_co} >= E[D_wt] {p.e_d_wt}")
        return problems


WORKLOADS = {w.name: w for w in (AuditCold(), ShrinkFlock(), Fig7Sweep())}


def simulated_hours(workload: Workload, inputs: Inputs) -> float:
    """Simulated protocol hours one pass covers (nominal horizons)."""
    horizon = inputs.config.horizon
    return horizon * workload.operations(inputs) / 3600.0
