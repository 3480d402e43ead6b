"""`cold_start` workload: one-shot launches of `python -m ascheme.cli verify`.

Each launch verifies a seeded vertex permutation of the 13-point cyclo-13-4
scheme file, so nearly all of its time is interpreter start and import.
wall_s is a batch of two launches one after the other, wall_w2_s the same
two launches side by side; each sequential launch is one op.  The
benchmark process itself imports nothing from ascheme unless the run is
traced.

The import breakdown used by traced runs of every workload lives here too:
bare-interpreter launches, `import ascheme.cli` launches, and
`python -X importtime` for the numpy, scipy and sympy shares.
"""

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time

import measure

BATCH = 2


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(measure.SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _launch(args):
    return subprocess.Popen(
        [sys.executable, *args], env=_env(), cwd=measure.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _run(args):
    """(seconds, exit code, stdout, stderr) of one launch run to completion."""
    t0 = time.perf_counter()
    proc = _launch(args)
    out, err = proc.communicate()
    return time.perf_counter() - t0, proc.returncode, out, err


def _permuted(text, rng):
    lines = text.split("\n")
    header, rows = lines[0], [ln.split() for ln in lines[1:] if ln.strip()]
    n = len(rows)
    p = list(range(n))
    rng.shuffle(p)
    body = [" ".join(rows[p[a]][p[b]] for b in range(n)) for a in range(n)]
    return "\n".join([header, *body]) + "\n"


class ColdStart:
    def __init__(self, seed, ops):
        self.seed = seed
        self.ops = ops
        with open(measure.EXPECTED / "cold_start.txt") as fh:
            self.expected = fh.read()
        self.files = []
        self.launches = []

    def setup(self):
        """Build the base file with the CLI (which also warms the launch path)
        and write the seeded permutations."""
        _, code, text, err = _run(["-m", "ascheme.cli", "build", "cyclo-13-4"])
        if code != 0:
            raise RuntimeError(f"ascheme build failed: {err}")
        rng = random.Random(self.seed)
        measure.WORK.mkdir(parents=True, exist_ok=True)
        self.files = []
        for k in range(BATCH):
            path = measure.WORK / f"cyclo-13-4-seed{self.seed}-{k}.txt"
            path.write_text(_permuted(text, rng))
            self.files.append(str(path))

    def _check(self, code, out, err, path):
        self.ops.check(code == 0 and out == self.expected,
                       f"verify {path}: exit {code}, stdout {out!r}, stderr {err[-300:]!r}")

    def _one_after_another(self):
        done = []
        for path in self.files:
            launch = measure.Timed(_run, ["-m", "ascheme.cli", "verify", path])
            self.launches.append(launch)
            done.append((path, launch.out))
        return done

    def pass_w1(self):
        """The launches one after another, each a measure.Timed op; returns
        the batch as a measure.Timed."""
        timed = measure.Timed(self._one_after_another)
        for path, (_, code, out, err) in timed.out:
            self._check(code, out, err, path)
        return timed

    def _side_by_side(self):
        procs = [(path, _launch(["-m", "ascheme.cli", "verify", path]))
                 for path in self.files]
        return [(path, proc, *proc.communicate()) for path, proc in procs]

    def pass_w2(self):
        timed = measure.Timed(self._side_by_side)
        for path, proc, out, err in timed.out:
            self._check(proc.returncode, out, err, path)
        return timed

    def traced_pass(self):
        """The verify command in this process, so the tracer sees its layers."""
        from ascheme import cli

        for path in self.files:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", path])
            self._check(code, buf.getvalue(), "", path)

    def op_samples(self):
        """Launch times in reference seconds; ask once the passes are over."""
        return [launch.ref() for launch in self.launches]


def _importtime_ms(stderr):
    """Cumulative import ms of the outermost numpy, scipy and sympy imports
    in `-X importtime` output; whatever one of them pulls in counts to it."""
    stack = []  # (depth, name, cumulative us, children), children printed first
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        kids = []
        while stack and stack[-1][0] > depth:
            kids.append(stack.pop())
        node = (depth, name.strip(), int(cum), kids)
        stack.append(node)
    totals = {"numpy": 0.0, "scipy": 0.0, "sympy": 0.0}

    def walk(node):
        top = node[1].split(".")[0]
        if top in totals:
            # a tracked package's subtree: its imports count to it alone
            totals[top] += node[2] / 1000.0
            return
        for kid in node[3]:
            walk(kid)

    for root in stack:
        walk(root)
    return totals


def cli_breakdown(ops, repeats=3):
    """cli.* metrics: medians over `repeats` launches of each kind, in ms."""
    def launches(args):
        times = []
        for _ in range(repeats):
            dt, code, _, err = _run(args)
            ops.check(code == 0, f"launch {args}: exit {code}: {err[-300:]!r}")
            times.append(dt * 1000.0)
        return statistics.median(times)

    interp = launches(["-c", "pass"])
    imported = launches(["-c", "import ascheme.cli"])
    base = measure.WORK / "breakdown-cyclo-13-4.txt"
    measure.WORK.mkdir(parents=True, exist_ok=True)
    _, code, text, err = _run(["-m", "ascheme.cli", "build", "cyclo-13-4"])
    ops.check(code == 0, f"ascheme build: exit {code}: {err[-300:]!r}")
    base.write_text(text)
    verify = launches(["-m", "ascheme.cli", "verify", str(base)])
    shares = {"numpy": [], "scipy": [], "sympy": []}
    for _ in range(2):
        _, code, _, err = _run(["-X", "importtime", "-c", "import ascheme.cli"])
        ops.check(code == 0, f"importtime launch: exit {code}")
        for k, v in _importtime_ms(err).items():
            shares[k].append(v)
    return {
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp,
        "cli.import_numpy_ms": statistics.median(shares["numpy"]),
        "cli.import_scipy_ms": statistics.median(shares["scipy"]),
        "cli.import_sympy_ms": statistics.median(shares["sympy"]),
        "cli.command_ms": verify - imported,
    }
