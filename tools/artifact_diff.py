"""Run the artifact matrix at two revisions and compare what they write.

Usage (from anywhere inside the repository)::

    python3 tools/artifact_diff.py PARENT [CHANGE] [--report FILE] [--work DIR]

``PARENT`` and ``CHANGE`` (default ``HEAD``) are git revisions; uncommitted
changes to tracked files can be compared as ``$(git stash create)``.  Each
revision is extracted with ``git archive`` into the work directory (a fresh
temporary one unless ``--work`` names one), and every run of :data:`MATRIX`
runs ``python -m mgtstab.cli`` in a fresh process on that revision's
``src/``, with ``--seed 3`` and one BLAS thread.  The JSON report gives each
run's exit codes and, for each file either run wrote, whether the bytes are
equal; a differing CSV or JSON file also gets the largest relative
difference ``|a - b| / max(|a|, |b|)`` of each column or numeric path where
one is nonzero (list indices read as ``*``), and the paths whose values are
not numbers and differ.  The exit status is 0 when every exit code and file
matches, 1 otherwise.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 3
PRESETS = (
    "half-disk-2d",
    "interval-1d-conserved",
    "interval-1d-damped",
    "interval-1d-unstable",
    "transducer-2d",
)
SUBCOMMANDS = ("simulate", "spectrum", "certify-geometry", "multiplier-check", "full")
WORKLOADS = ("interval-record", "transducer-spectrum", "halfdisk-bdf2")
# two domains whose operators vanish on part of the element pattern: the unit
# square (zero stiffness on its cells' diagonals) at alpha = 0, and a pentagon
PATTERN_CASES = (
    ("unit-square-alpha-0", {"kind": "named", "name": "unit-square"}, {"alpha": 0.0}, [0.5, 0.5]),
    (
        "pentagon",
        {
            "kind": "polygon",
            "vertices": [[0, 0], [2, 0], [2.5, 1], [1, 1.8], [-0.3, 1.1]],
            "segment_tags": ["gamma0", "gamma1", "gamma1", "gamma1", "gamma1"],
            "x0": [1.0, -3.0],
        },
        {},
        [1.0, 0.8],
    ),
)


def matrix():
    """The 33 runs ``(name, subcommand, config)``: every subcommand on every
    preset, then ``full`` and ``simulate`` on each benchmark workload's
    configuration at seed 1, then ``full`` on each of :data:`PATTERN_CASES`
    (the half-disk-2d preset on another domain)."""
    if os.path.join(ROOT, "perfbench") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import make_inputs

    runs = [(p, sub, {"preset": p}) for p in PRESETS for sub in SUBCOMMANDS]
    runs += [(w, sub, make_inputs(w, 1)[0]) for w in WORKLOADS for sub in ("full", "simulate")]
    for name, geometry, params, center in PATTERN_CASES:
        bump = {"kind": "gaussian-bump", "center": center, "width": 0.15}
        config = {"preset": "half-disk-2d", "geometry": geometry, "params": params, "initial": bump}
        runs.append((name, "full", config))
    return runs


# -- comparison ------------------------------------------------------------


def _rel(a, b):
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(a, b, path, diffs, other):
    # fold the largest relative difference of each numeric leaf into diffs[path]
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _walk(a[key], b[key], path + [str(key)], diffs, other)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _walk(x, y, path + ["*"], diffs, other)
    elif _number(a) and _number(b):
        key = "/".join(path)
        diffs[key] = max(diffs.get(key, 0.0), _rel(a, b))
    elif a != b:
        other.add("/".join(path) or "<root>")


def _csv_diffs(a, b):
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return {}, {"<shape>"}
    diffs, other = {}, set()
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], row_a, row_b):
            if x == y:
                continue
            try:
                diffs[name] = max(diffs.get(name, 0.0), _rel(float(x), float(y)))
            except ValueError:
                other.add(name)
    return diffs, other


def compare_files(path_a, path_b):
    """``{"equal": True}``, or for differing bytes ``{"equal": False,
    "max_rel_diff": {...}, "other": [...]}`` (a CSV's columns, a JSON file's
    numeric paths; the comparison is by bytes alone for other files)."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return {"equal": True}
    diffs, other = {}, set()
    if path_a.endswith(".csv"):
        diffs, other = _csv_diffs(a.decode(), b.decode())
    elif path_a.endswith(".json"):
        _walk(json.loads(a), json.loads(b), [], diffs, other)
    return {
        "equal": False,
        "max_rel_diff": {k: v for k, v in sorted(diffs.items()) if v > 0},
        "other": sorted(other),
    }


def compare_dirs(dir_a, dir_b):
    """``{file name: comparison}`` over the files of both directories; a file
    that only one holds reads ``{"equal": False, "only_in": "a" or "b"}``."""
    in_a, in_b = (set(os.listdir(d)) if os.path.isdir(d) else set() for d in (dir_a, dir_b))
    out = {}
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            out[name] = {"equal": False, "only_in": "a" if name in in_a else "b"}
        else:
            out[name] = compare_files(os.path.join(dir_a, name), os.path.join(dir_b, name))
    return out


# -- runs ------------------------------------------------------------------


def _git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev, dest):
    """The commit ``rev`` names, with its tree extracted into ``dest``."""
    commit = _git("rev-parse", "--verify", rev + "^{commit}")
    os.makedirs(dest)
    archive = dest + ".tar"
    _git("archive", "--format=tar", "-o", archive, commit)
    subprocess.run(["tar", "-xf", archive, "-C", dest], check=True)
    os.remove(archive)
    return commit


def run_matrix(tree, work, runs):
    """Exit code of each run on the checkout ``tree``; outputs go to ``work/<index>``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes = []
    for i, (name, sub, config) in enumerate(runs):
        cfg = os.path.join(work, "%02d.json" % i)
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        cmd = [sys.executable, "-m", "mgtstab.cli", sub, "--config", cfg]
        cmd += ["--out", os.path.join(work, "%02d" % i), "--seed", str(SEED)]
        with open(os.path.join(work, "%02d.log" % i), "w") as log:
            codes.append(subprocess.run(cmd, env=env, stdout=log, stderr=log).returncode)
        line = "%s %-22s %-16s exit %d" % (os.path.basename(work), name, sub, codes[-1])
        print(line, file=sys.stderr)
    return codes


def report(parent, change, work):
    runs = matrix()
    commits, codes = [], []
    for side, rev in (("parent", parent), ("change", change)):
        commits.append(extract(rev, os.path.join(work, side, "tree")))
        codes.append(run_matrix(os.path.join(work, side, "tree"), os.path.join(work, side), runs))
    rows = []
    for i, (name, sub, _) in enumerate(runs):
        out = [os.path.join(work, side, "%02d" % i) for side in ("parent", "change")]
        exits = [codes[0][i], codes[1][i]]
        rows.append({"run": "%s %s" % (name, sub), "exit": exits, "files": compare_dirs(*out)})
    n_files = sum(len(r["files"]) for r in rows)
    n_equal = sum(f["equal"] for r in rows for f in r["files"].values())
    return {
        "parent": commits[0],
        "change": commits[1],
        "seed": SEED,
        "runs": len(rows),
        "files": n_files,
        "files_equal": n_equal,
        "exit_codes_equal": all(r["exit"][0] == r["exit"][1] for r in rows),
        "matrix": rows,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the reference")
    parser.add_argument("change", nargs="?", default="HEAD", help="git revision to compare (HEAD)")
    parser.add_argument("--report", help="write the JSON report here instead of standard output")
    parser.add_argument("--work", help="new directory for the checkouts and outputs (kept)")
    args = parser.parse_args(argv)
    if args.work:
        rep = report(args.parent, args.change, args.work)
    else:
        with tempfile.TemporaryDirectory(prefix="artifact-diff-") as work:
            rep = report(args.parent, args.change, work)
    text = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    exits = "equal" if rep["exit_codes_equal"] else "differ"
    line = "%d runs, %d files, %d equal, exit codes %s"
    print(line % (rep["runs"], rep["files"], rep["files_equal"], exits), file=sys.stderr)
    return 0 if rep["files_equal"] == rep["files"] and rep["exit_codes_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
