"""Gate one set of benchmark results against another.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

Both files come from ``run.py --out``.  One row per workload and
end-to-end metric, marked ``better``, ``within bound``, ``worse`` or
``unresolved`` by the bounds in ``BENCHMARK.json``.  Exits 1 when any
metric is worse, a workload is missing, or a workload's failure rate
(failed / attempted operations) is higher in NEW.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Classify NEW against BASE for one metric's ``summarise`` records.

    ``unresolved`` when either side's quartile spread exceeds the bound,
    unless every NEW value beats every BASE value.  ``better`` needs an
    improvement larger than that spread.  A side with one value has no
    spread, so it can only be ``worse`` or ``within bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["median"] - base["median"]) / base["median"]
    sampled = min(base["n"], new["n"]) > 1
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    if better == "lower":
        beats_all = max(new["values"]) < min(base["values"])
    else:
        beats_all = min(new["values"]) > max(base["values"])
    if sampled and spread > bound and not beats_all:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if sampled and worsening < 0 and (beats_all or -worsening > spread):
        return "better"
    return "within bound"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Report rows and whether NEW passes the gate."""
    rows, ok = [], True
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            rows.append(f"{name}: missing from the new results")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            mark = verdict(b["metrics"][key], n["metrics"][key],
                           metric["better"], metric["bound"])
            ok = ok and mark != "worse"
            bm, nm = b["metrics"][key]["median"], n["metrics"][key]["median"]
            rows.append(f"{name:<18} {key:<12} {bm:>12.5g} -> {nm:<12.5g}"
                        f" {nm / bm - 1:+7.1%}  bound {metric['bound']:.0%}  {mark}")
        rates = [r["failed"] / r["attempted"] for r in (b, n)]
        if rates[1] > rates[0]:
            rows.append(f"{name:<18} failure rate {rates[0]:.3g} -> {rates[1]:.3g}  worse")
            ok = False
    return rows, ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    rows, ok = compare(base, new, json.loads(BENCHMARK.read_text()))
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
