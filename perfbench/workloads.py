"""The three benchmark workloads and what each is predicted to exercise.

Each workload is one ``python -m querylab <command>`` run on a generated
config. The trial counts make one run take about ten seconds on a 2-core
machine, so three runs fit in one benchmark run and their median is steady.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    grid: dict          # [grid] keys written into the generated config
    unit: str           # what units_per_s counts
    focus: tuple        # layers predicted to hold most of the span self time
    focus_share: float  # the share of span self time they are predicted to hold
    idle: tuple         # layers predicted to record 0 calls

    def config_text(self) -> str:
        lines = ["[experiment]", f"kind = {self.command}", "", "[grid]"]
        lines += [f"{key} = {value}" for key, value in self.grid.items()]
        return "\n".join(lines) + "\n"

    def units(self, rows, trials) -> int:
        """Work completed by one run, counted from its output."""
        if self.command == "endtoend":
            return len(trials)
        if self.command == "verify-lemmas":
            return sum(r["kind"] == "singular_low" for r in rows)
        # separation: `trials` random circuits per forward (d, n) cell, the
        # inverse-iterate circuit, its matched twin and `trials` random twins
        forward_cells = len(self.grid["d"].split(",")) * len(self.grid["n"].split(","))
        return forward_cells * self.grid["trials"] + 2 + self.grid["trials"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="endtoend-large-d",
            command="endtoend",
            # the default grid: d = gap_dimension(0.05)
            grid={"eps": "0.05", "d": "320000", "q": "257", "trials": 64},
            unit="labeled trials",
            focus=("phases", "ensembles"),
            focus_share=0.70,
            idle=("biased_fourier", "query_sim", "families"),
        ),
        Workload(
            name="lemmas-grid",
            command="verify-lemmas",
            grid={"eps": "0.0, 0.1, 0.25, 0.45", "q": "8, 64, 257, 1024"},
            unit="(q, eps) cells",
            focus=("biased_fourier", "linalg"),
            focus_share=0.80,
            idle=("ensembles", "query_sim", "amplitude", "families"),
        ),
        Workload(
            name="separation-deep",
            command="separation",
            grid={"eps": "0.02, 0.05, 0.1, 0.2", "d": "4, 5", "q": "16",
                  "n": "6, 8, 10", "trials": 20},
            unit="circuits simulated",
            focus=("query_sim",),
            focus_share=0.80,
            idle=("ensembles", "amplitude", "biased_fourier"),
        ),
    )
}
