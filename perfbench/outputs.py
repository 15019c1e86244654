"""Readers for the files ``mtbandit run`` writes.

Trace CSVs hold vectors as ';'-joined float reprs, so parsing them gives
back the exact values the run used.  The ``micros`` column is wall-clock
time under ``run --timing`` and is the only column that may differ
between two runs of one config.
"""

import csv
import os


def _vector(field):
    return [float(v) for v in field.split(";")] if field else []


def read_traces(outdir):
    """{file name: (algorithm label, [row dict per round])}."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if not (name.startswith("trace_") and name.endswith(".csv")):
            continue
        label = name[len("trace_"):].split("_trial")[0]
        with open(os.path.join(outdir, name), encoding="utf-8", newline="") as fh:
            rows = [
                {
                    "lambda": _vector(r["lambda"]),
                    "x": tuple(_vector(r["x"])),
                    "y": _vector(r["y"]),
                    "m_t": int(r["m_t"]),
                    "inst_regret": float(r["inst_regret"]),
                    "cum_regret": float(r["cum_regret"]),
                    "micros": int(r["micros"]),
                }
                for r in csv.DictReader(fh)
            ]
        out[name] = (label, rows)
    return out


def read_summary(outdir):
    """{(algorithm, t): mean time-average regret} from summary.csv."""
    with open(os.path.join(outdir, "summary.csv"), encoding="utf-8", newline="") as fh:
        return {
            (r["algorithm"], int(r["t"])): float(r["mean_time_avg_regret"])
            for r in csv.DictReader(fh)
        }


def deterministic_content(outdir):
    """{file name: bytes} of every CSV output, with trace micros blanked.

    manifest.json is left out: it hashes the traces, micros included, and
    records the wall time.
    """
    out = {}
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        if name.startswith("trace_"):
            # micros is the last column; cut each line after its last comma.
            data = b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))
        out[name] = data
    return out
