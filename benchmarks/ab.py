"""A/B ledger workloads: a git ref against the working tree, in pairs.

    python3 benchmarks/ab.py REF WORKLOAD [WORKLOAD ...] [--pairs N]
                             [--seed S] [--seconds T]

checks ``REF`` out into a temporary ``git worktree``, and the working tree
this script lives in into a second one, and, for each ``WORKLOAD`` in turn,
runs ``benchmarks/ledger/run.py --workload WORKLOAD --trace 0`` on the two,
alternately, ``N`` pairs (10 by default).  Within a pair the side that goes first
alternates, so a host that drifts slower over the session does not always
tax the same side.  Each side's runs go to its own interpreter, one at a
time: never two at once.

Prints one table per workload: for every end-to-end metric a run reports,
each side's median and quartiles over its runs, the change of the medians,
whether that change is larger than the ref's interquartile range, and in how
many pairs the working tree was better -- the method DESIGN.md section 9.6
asks a claimed gain to pass (>= 9 wins of 10, median moved by more than the
ref's spread).  Also checks that both sides produced the same repetition
signature and no failed check; the exit status is 1 when any workload did
not.  Naming every workload a change must not move makes those pairs one
command.

Both sides are the same kind of checkout, so an A/A run (the working tree
unchanged from ``REF``) reads no difference that the checkouts made.  The
working-tree side is a snapshot taken at start -- tracked changes and the
untracked files git does not ignore, staged through a temporary index into a
tree object -- laid over a worktree of ``REF``'s commit.  Both sides report
that commit as theirs, so the commit id every campaign store record carries
is the same on both, and so is every repetition signature that hashes the
store.  No ref, stash or index of the repository moves.

Run nothing else CPU-bound on the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from ledger.harness import quartiles  # noqa: E402
from ledger.metrics import LEDGER_END_TO_END, WORKLOADS  # noqa: E402

SIDES = ("ref", "tree")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against "
                        "(e.g. HEAD, HEAD~1, a commit id)")
    parser.add_argument("workloads", nargs="+", metavar="workload",
                        choices=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating (ref, tree) run pairs (default 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of each run's timed repetitions "
                        "(run.py's default when omitted)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def git(*args: str, cwd: Path = ROOT, env: Optional[Dict] = None) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"ab.py: git {' '.join(args)}: "
                         f"{done.stderr.strip()}")
    return done.stdout.strip()


def snapshot_tree(scratch: Path) -> str:
    """The working tree as a git tree object: ``HEAD`` read into a
    temporary index, then every change and every untracked file that is not
    ignored added to it."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "snapshot.index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def run_once(tree: Path, workload: str, args: argparse.Namespace,
             out: Path) -> Dict:
    command = [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", "0", "--out", str(out)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"ab.py: run.py in {tree} exited {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def better(name: str, tree: float, ref: float) -> bool:
    metric = LEDGER_END_TO_END.get(name)
    if metric is not None and metric.better == "higher":
        return tree > ref
    return tree < ref


def summary(name: str, ref: Sequence[float], tree: Sequence[float]) -> str:
    r_q1, r_med, r_q3 = quartiles(ref)
    t_q1, t_med, t_q3 = quartiles(tree)
    wins = sum(better(name, t, r) for r, t in zip(ref, tree))
    change = (t_med / r_med - 1.0) * 100.0 if r_med else 0.0
    beyond = abs(t_med - r_med) > r_q3 - r_q1
    return (f"{name:<22} ref {r_med:10.4g} [{r_q1:.4g}, {r_q3:.4g}]   "
            f"tree {t_med:10.4g} [{t_q1:.4g}, {t_q3:.4g}]   "
            f"{change:+6.1f} %  wins {wins}/{len(ref)}"
            f"{'' if beyond else '  (within ref IQR)'}")


def compare(workload: str, args: argparse.Namespace, trees: Dict[str, Path],
            scratch: Path, title: str) -> bool:
    """Run one workload's pairs and print its table; True when both sides
    produced one and the same signature and no failed check."""
    values: Dict[str, Dict[str, List[float]]] = {side: {} for side in SIDES}
    signatures: Dict[str, set] = {side: set() for side in SIDES}
    failed = {side: 0 for side in SIDES}
    for pair in range(args.pairs):
        order: Tuple[str, ...] = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], workload, args,
                              scratch / f"{side}.json")
            for name, stat in result["end_to_end"].items():
                values[side].setdefault(name, []).append(stat["value"])
            signatures[side].add(result["signature"])
            failed[side] += result["failed"]
        run_s = [values[side]["run_s"][-1] for side in SIDES]
        print(f"# {workload} pair {pair + 1}/{args.pairs}: run_s ref "
              f"{run_s[0]:.4g}  tree {run_s[1]:.4g}", flush=True)

    print(f"# {workload} seed={args.seed}: {title}, {args.pairs} pairs")
    for name in values["ref"]:
        print(summary(name, values["ref"][name], values["tree"][name]))
    same = signatures["ref"] == signatures["tree"] and len(signatures["ref"]) == 1
    print(f"# signatures {'identical' if same else 'DIFFER'}; failed checks "
          f"ref={failed['ref']} tree={failed['tree']}", flush=True)
    return same and not any(failed.values())


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sha = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    title = f"ref {args.ref} ({sha[:12]}) vs working tree"
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        tree = snapshot_tree(Path(scratch))
        trees = {side: Path(scratch) / side for side in SIDES}
        try:
            for path in trees.values():
                git("worktree", "add", "--detach", str(path), sha)
            git("read-tree", "--reset", "-u", tree, cwd=trees["tree"])
            ok = [compare(workload, args, trees, Path(scratch), title)
                  for workload in args.workloads]
        finally:
            for path in trees.values():
                if path.exists():
                    git("worktree", "remove", "--force", str(path))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
