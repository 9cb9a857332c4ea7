"""Self-test of the benchmark: each oracle accepts a real op output and
rejects deliberately corrupted copies of it.  Also checks that the metric
names in BENCHMARK.json match the ones run.py prints.

    python3 bench/check_oracles.py

Exits 0 when every check holds, 1 otherwise.
"""

import copy
import json
import sys

import run  # pins BLAS threads before numpy loads
import oracles
import workloads


def _render(bound, report) -> tuple[int, str]:
    """Exit code and stdout of a report, consistent with its statuses."""
    rc = 1 if any(c["status"] == "fail" for c in report["checks"]) else 0
    text = json.dumps(report, indent=2) + "\n"
    return rc, (f"bound: {bound}\n" + text) if bound is not None else text


def flip_status(name=None):
    def corrupt(bound, report):
        check = next(c for c in report["checks"] if name is None or c["name"] == name)
        check["status"] = "fail" if check["status"] == "pass" else "pass"
        return bound, report
    return corrupt


def set_metric(value, name=None, scale=None):
    def corrupt(bound, report):
        check = next(c for c in report["checks"] if name is None or c["name"] == name)
        check["metric"] = check["metric"] * scale if scale is not None else value
        return bound, report
    return corrupt


def drop_last_check(bound, report):
    report["checks"].pop()
    return bound, report


def shift_bound(factor):
    def corrupt(bound, report):
        report["parameters"]["bound"] = bound * factor
        return bound * factor, report
    return corrupt


def add_to_bound(delta):
    def corrupt(bound, report):
        report["parameters"]["bound"] = bound + delta
        return bound + delta, report
    return corrupt


def set_size(delta):
    def corrupt(bound, report):
        report["parameters"]["size"] += delta
        return bound, report
    return corrupt


# (op kind, which op of the workload, corruptions its oracle must reject);
# the second orth and pair cases take the oracles' other paths
CASES = [
    ("psd", lambda op: op.meta["r"] == 30 and op.meta["n"] == 4,
     [flip_status(), set_metric(1e-6), set_metric(-1e-6), drop_last_check]),
    ("orth", lambda op: op.meta["k"] != op.meta["l"] and op.meta["m"] == 1,
     [flip_status(), set_metric(6.5, "mc z-score"), set_metric(4.5, "mc z-score"),
      set_metric(1e-6, "quadrature relative"), drop_last_check]),
    ("orth", lambda op: op.meta["k"] == op.meta["l"] and op.meta["m"] == 0,
     [set_metric(None, scale=1.001), flip_status()]),
    ("lp", lambda op: op.meta["n"] == 8 and op.meta["theta"] == "pi/3",
     [shift_bound(1 + 1e-6), shift_bound(1 - 1e-3), flip_status()]),
    ("cert", lambda op: op.meta["n"] == 4, [shift_bound(1 + 1e-6), flip_status()]),
    ("count", lambda op: op.meta["m"] == 2,
     [add_to_bound(1), add_to_bound(-1), set_metric(None, scale=2.0), flip_status()]),
    ("code", lambda op: op.meta["n"] == 3 and op.meta["theta"] == "pi/3",
     [set_metric(0.9), set_size(1), set_size(-1), flip_status()]),
    ("pair", lambda op: op.meta["realizable"],
     [flip_status("realizable set"), flip_status("level m=0"),
      set_metric(1e-6, "reconstruction round-trip"), drop_last_check]),
    ("pair", lambda op: not op.meta["realizable"],
     [flip_status("realizable set"), flip_status("membership chain monotone")]),
    ("addition", lambda op: True,
     [set_metric(1e-8, "identity residual m=1"), flip_status(), drop_last_check]),
]


def main() -> int:
    spherepd = run.import_program()
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    for workload, build in workloads.WORKLOADS.items():
        workdir = run.WORKDIR / workload
        workdir.mkdir(parents=True, exist_ok=True)
        ops = build(0, workdir)
        for kind, pick, corruptions in CASES:
            chosen = [op for op in ops if op.kind == kind and pick(op)]
            if not chosen:
                continue
            op = chosen[0]
            rc, text = run.run_op(spherepd.cli, op.argv)
            found = oracles.check(op, rc, text, spherepd)
            status = "ok" if not found else f"FAILED: {found[:2]}"
            print(f"{status:6} accepts real output of {op.label}")
            if found:
                problems.append(op.label)
            for corrupt in corruptions:
                bound, report = oracles.parse(text)
                crc, ctext = _render(*corrupt(bound, copy.deepcopy(report)))
                rejected = oracles.check(op, crc, ctext, spherepd)
                what = corrupt.__qualname__.split(".")[0]
                status = "ok" if rejected else "FAILED"
                print(f"{status:6} rejects {what} of {op.label}: "
                      f"{rejected[0] if rejected else 'accepted'}"[:160])
                if not rejected:
                    problems.append(f"{what} of {op.label}")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
