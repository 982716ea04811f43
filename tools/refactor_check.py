"""Check that a change leaves every pscomp-bench output byte-identical.

    python tools/refactor_check.py <base-ref> <work-dir>

Exports <base-ref> with ``git archive`` into <work-dir>/base (<work-dir> must be
missing or empty).  On that tree and the working tree it runs ``list``, ``validate``
on every document below, each listed preset at its defaults and each RUNS
config, then compares every command's output and exit code and every output
file.  Exits 0 when all are identical, else 1 (2 on a usage error).
"""

import csv
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``(name, config)``; ``name`` is the run's output directory.
RUNS = (
    # Every preset that reads base_method, once more with the s4sim base at a short config.
    ("s4sim-ho-table1", {"preset": "ho-table1", "base_method": "s4sim"}),
    ("s4sim-ho-energy", {"preset": "ho-energy", "base_method": "s4sim",
                         "tau_list": [0.2, 0.1, 0.05], "t_final": 100.0}),
    ("s4sim-kepler-order", {"preset": "kepler-order", "base_method": "s4sim",
                            "tau_list": [0.08, 0.04, 0.02], "t_final": 2.0, "levels": 2}),
    ("s4sim-kepler-energy", {"preset": "kepler-energy", "base_method": "s4sim",
                             "tau_list": [0.05], "t_final": 20.0}),
    ("s4sim-fisher-order", {"preset": "fisher-order", "base_method": "s4sim",
                            "tau_list": [0.05, 0.025, 0.0125], "t_final": 0.2, "grid_points": 64}),
    ("s4sim-cgl-order", {"preset": "cgl-order", "base_method": "s4sim",
                         "tau_list": [0.05, 0.025], "t_final": 0.2, "grid_points": 128}),
    # CGL at level 3 on the Strang base: stacked level-1 calls inside levels 2 and 3.
    ("level3", {"preset": "cgl-order", "levels": 3, "tau_list": [0.05, 0.025], "t_final": 0.2,
                "grid_points": 128}),
    # A tau list that does not halve: the 0.03 cell reads the 0.06 / 2 run made two cells earlier.
    ("nonhalving", {"preset": "fisher-order", "tau_list": [0.1, 0.06, 0.05, 0.03],
                    "t_final": 0.3, "grid_points": 32}),
    # CGL on that list: six steps per method run as one stack whose rows finish unevenly;
    # at level 4 a step hands its base 16 tuples of steps, more than the Strang cache's 8.
    ("deep-nonhalving", {"preset": "cgl-order", "levels": 3,
                         "tau_list": [0.1, 0.06, 0.05, 0.03], "t_final": 0.3, "grid_points": 64}),
    ("deep4-nonhalving", {"preset": "cgl-order", "levels": 4,
                          "tau_list": [0.1, 0.06, 0.05, 0.03], "t_final": 0.3, "grid_points": 64}),
    # Kepler at level 4 (42 mirror averages a step); on s4sim, its conj twin 3 levels deep.
    ("kepler4", {"preset": "kepler-order", "levels": 4, "tau_list": [0.08, 0.04, 0.02],
                 "t_final": 0.16}),
    ("s4sim4", {"preset": "kepler-order", "base_method": "s4sim", "levels": 4,
                "tau_list": [0.08, 0.04, 0.02], "t_final": 0.16}),
    # The ho-s4sim-long benchmark workload's config: every state of one s4sim level recorded.
    ("long", {"preset": "ho-energy", "base_method": "s4sim", "tau_list": [1.2, 1.0, 0.8],
              "t_final": 1200.0}),
    # Level 1 at the complex steps of level 2: s4sim's conj twin on every trajectory step.
    ("ho-s4sim-l2", {"preset": "ho-energy", "base_method": "s4sim", "levels": 2,
                     "tau_list": [0.4, 0.2, 0.1], "t_final": 40.0}),
)

#: ``(name, JSON text)`` of documents that are only validated.
VALIDATE = (
    # Rejected by the problem and base rows and by the preset's own row.
    ("base-rk4", '{"preset": "kepler-order", "base_method": "rk4"}'),
    ("kepler-e", '{"preset": "kepler-order", "problem_params": {"e": 1.5}}'),
    ("ho-zero-energy", '{"preset": "ho-energy", "problem_params": {"q0": 0.0, "p0": 0.0}}'),
    ("fisher-k", '{"preset": "fisher-order", "problem_params": {"k": 1.0}}'),
    ("kepler-order-cgl", '{"preset": "kepler-order", "problem": "cgl"}'),
    # Nested past the JSON parser's recursion limit, then just under it, where the
    # message must print the value with a bounded repr.
    ("tau-1e5-deep", '{"preset": "kepler-order", "tau_list": ' + "[" * 10**5 + "]" * 10**5 + "}"),
    ("tau-988-deep", '{"preset": "kepler-order", "tau_list": ' + "[" * 988 + "]" * 988 + "}"),
    ("e-987-deep",
     '{"preset": "kepler-order", "problem_params": {"e": ' + "[" * 987 + "]" * 987 + "}}"),
    # coeff-audit reads no problem_params: rejected off the harmonic defaults, accepted at one.
    ("q0-off-default", '{"preset": "coeff-audit", "problem_params": {"q0": 3.0}}'),
    ("q0-default", '{"preset": "coeff-audit", "problem_params": {"q0": 2.5}}'),
)


def _cli(tree, side, record, *args):
    """Run ``pscomp-bench args`` from ``tree`` in ``side/out``, so a run prints the same paths
    on both sides, and write its output and exit code to ``side/cli/record``."""
    done = subprocess.run([sys.executable, "-m", "pscomp.bench.cli", *args], cwd=side / "out",
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    (side / "cli" / record).write_text(f"{done.stdout}exit {done.returncode}\n")
    return done.stdout


def _csv_change(base, head):
    """Rows that differ, the largest relative change of a number and the status
    cells changed, so a move at roundoff reads apart from a change of behaviour."""
    base, head = ([*csv.DictReader(io.StringIO(d.decode(), newline=""))] for d in (base, head))
    pairs = list(zip(base, head))
    print(f"rows: {len(base)} at the base, {len(head)} at the head, "
          f"{sum(b != h for b, h in pairs)} of {len(pairs)} paired rows differ")
    for col in ("value", "slope"):
        changes = [abs(float(y) - float(x)) / abs(float(x)) if x and y and float(x) else math.inf
                   for x, y in ((b.get(col, ""), h.get(col, "")) for b, h in pairs) if x != y]
        worst = math.nan if any(map(math.isnan, changes)) else max(changes, default=0.0)
        print(f"largest relative change in {col}: {worst:.3g}")
    print(f"status cells changed: {sum(b.get('status') != h.get('status') for b, h in pairs)}")


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/refactor_check.py <base-ref> <work-dir>", file=sys.stderr)
        return 2
    base_ref, work = argv[0], Path(argv[1]).resolve()
    if work.exists() and (not work.is_dir() or any(work.iterdir())):
        print(f"error: {work} exists and is not an empty directory", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", base_ref], cwd=ROOT, stdout=subprocess.PIPE)
    if archive.returncode:  # git has named the bad ref on stderr
        return 2
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(work / "base", filter="data")
    configs = work / "configs"
    configs.mkdir()
    for name, text in [(name, json.dumps(config)) for name, config in RUNS] + list(VALIDATE):
        (configs / f"{name}.json").write_text(text + "\n")

    files = {}
    for label, tree in (("base", work / "base"), ("head", ROOT)):
        side = work / "results" / label
        (side / "out").mkdir(parents=True)
        (side / "cli").mkdir()
        listed = _cli(tree, side, "list", "list").splitlines()
        for name in [line.split()[0] for line in listed if line.strip()]:
            _cli(tree, side, f"run-{name}", "run", name, "--out", "defaults")
        for name, _ in RUNS + VALIDATE:
            _cli(tree, side, f"validate-{name}", "validate", str(configs / f"{name}.json"))
        for name, config in RUNS:
            _cli(tree, side, f"run-{name}", "run", config["preset"],
                 "--config", str(configs / f"{name}.json"), "--out", name)
        files[label] = {p.relative_to(side).as_posix(): p.read_bytes()
                        for p in side.rglob("*") if p.is_file()}

    base, head = files["base"], files["head"]
    names = sorted(base.keys() | head.keys())
    differ = [name for name in names if base.get(name) != head.get(name)]
    # A CLI record's kind is its command; a file a run wrote is an output.
    kinds = {name: "output" if name.startswith("out/") else name[4:].split("-")[0]
             for name in names}
    for kind in dict.fromkeys(kinds.values()):
        of_kind = [name for name in names if kinds[name] == kind]
        print(f"{kind}: {len(set(of_kind) - set(differ))} of {len(of_kind)} identical")
    for name in differ:
        print(f"--- {name}", *[f"(none at the {k})" for k in files if name not in files[k]])
        if name.endswith(".csv"):
            _csv_change(base.get(name, b""), head.get(name, b""))
        diff = difflib.unified_diff(*(side.get(name, b"").decode(errors="replace").splitlines()
                                      for side in (base, head)),
                                    f"base/{name}", f"head/{name}", lineterm="")
        print(*list(diff)[:60], sep="\n")
    print(f"{len(differ)} file(s) differ" if differ else "identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
