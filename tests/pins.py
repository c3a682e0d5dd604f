"""The CLI contract: every pinned ``symrank`` command, one row each.

A row of STDLIB or NUMPY is a name, what the command must give and its argv
in shell quoting.  What it must give is either the sha256 of the bytes it
writes to ``--out`` (its last argument), with exit 0, or a nonzero exit code
and then the first line it writes to stderr.  No row's stderr may hold a
traceback.  FILES holds the text of each input file a row names.

``PYTHONPATH=src python tests/pins.py`` runs the STDLIB rows in this one
interpreter, in a fresh temporary directory, with numpy blocked: a row whose
command tries numpy fails, so these rows show that the commands they run
need only the standard library.  A row that writes to /dev/full is skipped,
with a line that says so, where there is no /dev/full.  Then a fresh
interpreter without ``site`` imports symrank and runs a serial sweep, which
must load none of the modules in UNUSED.  The script prints one line per
check and exits 1 if any fails, naming the row (with the command, both
values and the command's stderr, or the exception it raised) or the modules.
The NUMPY rows need numpy; ``tests/test_cli.py`` runs them in-process.
"""

import collections
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import traceback

import symrank
from symrank.cli import main

# expected: the sha256 of the --out bytes when code is 0, else the first stderr line
Pin = collections.namedtuple("Pin", "name argv code expected inputs")

FILES = {
    # a conjugated derogatory matrix: the adjugate gcd has degree 1, 30 of the 64 derivative
    # entries are zero and the even rows negate theirs
    "m.json": '{"n":4,"field":"exact","entries":[[["1/2","0/1"],["0/1","0/1"],["-2/3","8/5"],["-1/3","4/5"]],[["0/1","0/1"],["1/2","0/1"],["-11/3","-16/5"],["-4/3","-8/5"]],[["0/1","0/1"],["0/1","0/1"],["7/6","-8/5"],["1/3","-4/5"]],[["0/1","0/1"],["0/1","0/1"],["-5/3","4/1"],["-1/3","2/1"]]]}\n',
    # 31 of the 128 derivative parts lie outside [-32, 32], the largest is 483: shared small
    # Gaussian integers next to fresh ones
    "b.json": '{"n":4,"field":"exact","entries":[[["3/1","0/1"],["-2/1","1/1"],["0/1","0/1"],["5/1","0/1"]],[["1/1","0/1"],["0/1","7/1"],["-4/1","0/1"],["0/1","0/1"]],[["0/1","0/1"],["2/1","-3/1"],["9/1","0/1"],["-1/1","0/1"]],[["6/1","0/1"],["0/1","0/1"],["1/1","1/1"],["-8/1","0/1"]]]}\n',
    # gen-float's bytes
    "g.json": json.dumps({"n": 4, "field": "float", "entries": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}, indent=2, sort_keys=True) + "\n",
}


def table(text: str) -> list:
    """The rows of text, one per line that is neither blank nor a # comment."""
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, expected, command = line.split(None, 2)
            argv = shlex.split(command)
            code = 0
            if len(expected) != 64:  # an exit code, then the first stderr line
                code, (expected, *argv) = int(expected), argv
            rows.append(Pin(name, argv, code, expected, {a: FILES[a] for a in argv if a in FILES}))
    return rows


STDLIB = table("""
# every mode at n <= 3 and 5, where the Faddeev-LeVerrier kernel runs two and three packed
# steps; two worker processes must give the same bytes as one
sweep-n3-four-modes      843e3a269e5d0f73389e6ad04693101ad4750d600334bea90c78f531952ee957 sweep --n-max 3 --modes theorem,nullspace,tangent,vandermonde --seed 0 --out s.jsonl
sweep-n3                 8464ba46639048f7a86906ccb044df8f5e78d54c6a92c8a71e0f91e7666d0c40 sweep --n-max 3 --seed 0 --jobs 1 --out s3.jsonl
sweep-n5                 4ebb467ffe6ea3793fdf22037b1c56e9363157cdda6e3b2ba68ece46f757913e sweep --n-max 5 --seed 0 --out s5.jsonl
sweep-n5-jobs-2          4ebb467ffe6ea3793fdf22037b1c56e9363157cdda6e3b2ba68ece46f757913e sweep --n-max 5 --seed 0 --jobs 2 --out s5j.jsonl
# rational pools put denominators into the Jordan matrices, the Frobenius factors and the
# Vandermonde columns; the 786 specs of the n = 5 pool clear over common denominators up to 6
sweep-n4-rational        8217be9e5a9914595999da44fd89e02066fa78e334c6e8df58fc95b044173dd5 sweep --n-max 4 --pool 0,1/2,1/3+2/5i --seed 0 --jobs 1 --out q4.jsonl
sweep-n4-rational-jobs-2 8217be9e5a9914595999da44fd89e02066fa78e334c6e8df58fc95b044173dd5 sweep --n-max 4 --pool 0,1/2,1/3+2/5i --seed 0 --jobs 2 --out q4j.jsonl
sweep-n5-rational        69886f226e252a314e89ea5e601228ad8b9b6037e730334c5258cd19dc8e1946 sweep --n-max 5 --pool '1/2,-1/3+i,2/3,i,0' --seed 3 --out r5.jsonl
# all 2,051 default-pool Frobenius matrices up to n = 6, one explicit Jacobian per matrix
sweep-n6-tangent         49e34381405ed74d0dfd1fb251f9db07e1707e6f227ee32209a946c6780166b1 sweep --n-max 6 --modes tangent --seed 0 --out t6.jsonl
# the curve path: up to five eigenvalues per spec at n = 6, each order the 2-adic valuation
# of one packed Taylor coefficient; a rational quadratic curve (observed orders 4, 1, 1, 2);
# and the only required order above 2 (4, 3, 2, 2, 1, 1, 1, 2, 1, 1, 1, 1 at n = 12)
sweep-n4-ord             4e08baf0abaeb0c0379357d37bd2b41d32eddab0da6858a5c4fa731c29359387 sweep --n-max 4 --modes ord --seed 0 --out o.jsonl
sweep-n6-ord             314a457fcf304c87cda920f43c12ae79e9c72b4839d1eef3a65b28459c207c6a sweep --n-max 6 --modes ord --seed 0 --out o6.jsonl
ord-rational-curve       5db5149385797634f70415acde95e6efc5b2e3ff7b81daca303977a3248ea9e4 ord --spec '{"n":4,"blocks":[{"eigenvalue":["1/2","0/1"],"sizes":[1,2]},{"eigenvalue":["-1/3","1/1"],"sizes":[1]}]}' --curve '{"coefficients":[{"n":4,"field":"exact","entries":[[["1/2","0/1"],["0/1","0/1"],["0/1","0/1"],["0/1","0/1"]],[["0/1","0/1"],["1/2","0/1"],["1/1","0/1"],["0/1","0/1"]],[["0/1","0/1"],["0/1","0/1"],["1/2","0/1"],["0/1","0/1"]],[["0/1","0/1"],["0/1","0/1"],["0/1","0/1"],["-1/3","1/1"]]]},{"n":4,"field":"exact","entries":[[["0/1","0/1"],["0/1","0/1"],["0/1","0/1"],["0/1","0/1"]],[["0/1","0/1"],["0/1","0/1"],["0/1","2/1"],["0/1","0/1"]],[["0/1","0/1"],["-2/1","2/1"],["-1/1","-2/1"],["1/2","-2/1"]],[["3/1","-2/1"],["0/1","0/1"],["-1/1","-1/1"],["0/1","0/1"]]]},{"n":4,"field":"exact","entries":[[["0/1","0/1"],["2/1","0/1"],["0/1","-1/1"],["-1/3","1/1"]],[["0/1","0/1"],["0/1","0/1"],["-1/2","0/1"],["0/1","2/1"]],[["-1/1","-1/2"],["3/2","-1/2"],["0/1","0/1"],["-1/1","-2/3"]],[["0/1","0/1"],["3/1","3/2"],["-1/3","-1/2"],["1/1","3/2"]]]}]}' --out oc.json
ord-n12-late-starts      ddbdb1e1ee74e812c5b601da950edd031d38056fd20b04f580a405152e331453 ord --spec '{"n": 12, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 1, 2, 3]}, {"eigenvalue": ["1/2", "0/1"], "sizes": [1, 2]}, {"eigenvalue": ["-1/3", "1/1"], "sizes": [2]}]}' --seed 0 --out o12.json
# rank 2 = deg m_B at a derogatory Jordan matrix and at its random conjugate
verify-derogatory        c43d018f501305438c738af003dd303711787be401dd51aa8e2ba172e45096ec verify --spec '{"n": 3, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 2]}]}' --out v.json
# (t^2 + 2) | t^4 - 4 through the validated FrobeniusSpec.from_json; null vectors with
# different denominators cleared over one; tangent components k <= 10 unscaled by D^(k-1) E
gen-frobenius            9e014786b4e1f6d0b2b7bc824095800658b8b637faaba1ac5ac85c145406881f gen --spec '{"invariant_factors": [[["2/1","0/1"],["0/1","0/1"],["1/1","0/1"]], [["-4/1","0/1"],["0/1","0/1"],["0/1","0/1"],["0/1","0/1"],["1/1","0/1"]]]}' --out f.json
tangent-frobenius        64c3d5cc1efd146b9a9bd78c6319105e336b8e4c752a8aa81aac6adc33a11abb tangent --spec '{"invariant_factors": [[["2/1","0/1"],["0/1","0/1"],["1/1","0/1"]], [["-4/1","0/1"],["0/1","0/1"],["0/1","0/1"],["0/1","0/1"],["1/1","0/1"]]]}' --out ft.json
nullspace-rational-n7    55768852718dfbed5ae29396c2ce140c6385ffd88b4510eac82f860ee1a32a05 nullspace --spec '{"n": 7, "blocks": [{"eigenvalue": ["1/2", "0/1"], "sizes": [1, 1, 2]}, {"eigenvalue": ["1/3", "1/1"], "sizes": [1, 2]}]}' --out n7.json
tangent-rational-n7      efd088050444c943e02fcbe7c68e97c6be7558ee76732fd235817c423dc923e1 tangent --spec '{"n": 7, "blocks": [{"eigenvalue": ["1/2", "0/1"], "sizes": [1, 1, 2]}, {"eigenvalue": ["1/3", "1/1"], "sizes": [1, 2]}]}' --out t7.json
tangent-rational-n10     fb1812d0fdf9b81a5e7cbe970410e2ce877aa7c19efa064c7e603909b6802396 tangent --spec '{"n": 10, "blocks": [{"eigenvalue": ["1/2", "0/1"], "sizes": [1, 2, 3]}, {"eigenvalue": ["-1/3", "1/1"], "sizes": [1, 3]}]}' --out t10.json
minpoly-conjugated       7494379767133f262edd8bb5302f9abe3f4b4c6c363aef11aa45b3c03ae5425e minpoly m.json --out p.json
jacobian-conjugated      a92da6da76b2ed891242123ffa7205b51ae3d072999756338b4df61a2a000d79 jacobian m.json --out j.json
jacobian-integer         8c1eefcfac2f199fdc161352b683f45455ceb569a79822111b339372c9b61709 jacobian b.json --out bj.json
rank-integer             93862ed58c63f86fe205f8678cb990a72e13c57ae69dd58732208f066558ed77 rank b.json --out r.json
# without numpy, exact pi prints a null spectral bound: a float diagnostic never aborts an
# exact result
pi-conjugated-null-bound d4a7328aa158ebf49bf40f004046b2616513c85ee4625ee0b7f0b5d6434af41c pi m.json --out mp.json
# one Jordan spec in both fields: every float value gen prints is an exact dyadic, so its
# bytes do not depend on numpy, which it does not load
gen-jordan               2c9a481581fccf69a8a6d2d0367caea9bea37380eb981a4b874e46804de9b495 gen --spec '{"n": 4, "blocks": [{"eigenvalue": ["1/2", "0/1"], "sizes": [1, 2]}, {"eigenvalue": ["-1/1", "0/1"], "sizes": [1]}]}' --out ge.json
gen-float                22157a8b3e02ed079d19bfc59014cbc11d7d1f81301a4b9074c2a2e07d681961 gen --field float --spec '{"n": 4, "blocks": [{"eigenvalue": ["1/2", "0/1"], "sizes": [1, 2]}, {"eigenvalue": ["-1/1", "0/1"], "sizes": [1]}]}' --out gf.json
# refusals: exit 2 and one error line, not a traceback.  Without numpy a float command names
# it; /dev/full opens but fails every write; a list is not a spec
pi-float-needs-numpy     2 'error: the float field needs numpy, which is not installed' pi g.json
gen-out-dev-full         2 'error: --out /dev/full: No space left on device' gen --spec '{"n": 1, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1]}]}' --out /dev/full
verify-spec-of-wrong-kind 2 "error: --spec: Jordan spec JSON must be an object with 'n', 'blocks' list, got [1, 2]" verify --spec '[1, 2]'
""")

# pi and jacobian print floats through numpy; every value is an exact dyadic, so the bytes do
# not depend on the BLAS summation order
NUMPY = table("""
pi-float                 d0eada06c25d3ae58593e3eb42fd84b3c3fb7b515db1d249106993a805fd330c pi g.json --out gp.json
jacobian-float           db82655f3b220ec8cb1a92f692506583480915dcc8f5093dcf9718b149d28e73 jacobian g.json --out ge.json
""")


def failure(pin: Pin) -> str | None:
    """Run pin in the current directory: None if it exits with pin.code, gives
    pin.expected and writes no traceback, else a report naming the row, the
    command, the expected and the actual value and the command's stderr.  A
    command that raises fails its row, and its traceback ends the report;
    its stdout is discarded."""
    for name, text in pin.inputs.items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = f"exit {main(pin.argv)}"
    except SystemExit as exc:  # argparse refuses the command line
        status = f"exit {exc.code}"
    except Exception as exc:  # the user would see this traceback
        status = f"raised {exc!r}"
        err.write(traceback.format_exc())
    stderr = err.getvalue()
    if pin.code:
        what, actual = "stderr", stderr.partition("\n")[0]
    else:
        out = pathlib.Path(pin.argv[-1])
        what = "sha256"
        actual = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    if status == f"exit {pin.code}" and actual == pin.expected and "Traceback" not in stderr:
        return None
    return (f"FAIL {pin.name}: {status}, expected exit {pin.code}\n"
            f"  symrank {shlex.join(pin.argv)}\n"
            f"  expected {what} {pin.expected}\n  actual {what}   {actual}\n{stderr}")


#: Modules that ``import symrank`` and a serial sweep must not load: the value types need no
#: dataclasses (nor the inspect module it imports), annotations no typing, the exact paths no
#: numpy, and a serial sweep no process pool
UNUSED = ("dataclasses", "inspect", "typing", "numpy", "concurrent.futures.process")
SERIAL_SWEEP_CHILD = """
import os, sys
before = set(sys.modules)
import symrank
from symrank.cli import main
code = main(["sweep", "--n-max", "2", "--out", os.devnull])
print(*sorted(set(sys.argv[1:]) & (set(sys.modules) - before)))
sys.exit(code)
"""


def unused_module_failure() -> str | None:
    """None if a fresh interpreter without site, which may preload typing,
    imports symrank and runs a serial sweep to exit 0 without loading a
    module of UNUSED, else a report naming the modules it loaded."""
    src = str(pathlib.Path(symrank.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", SERIAL_SWEEP_CHILD, *UNUSED],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    if done.returncode == 0 and not done.stdout.strip():
        return None
    return (f"FAIL import-and-serial-sweep: exit {done.returncode}, loaded "
            f"[{done.stdout.strip()}] of {' '.join(UNUSED)}\n{done.stderr}")


def run_stdlib() -> int:
    """Check every STDLIB row with numpy blocked, in a fresh temporary
    directory, and then the modules of a serial sweep; one line each."""
    sys.modules["numpy"] = None  # now any import of numpy raises ModuleNotFoundError
    failed = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for pin in STDLIB:
                if "/dev/full" in pin.argv and not os.path.exists("/dev/full"):
                    print(f"skip {pin.name}: this system has no /dev/full", flush=True)
                    continue
                report = failure(pin)
                failed += report is not None
                print(report or f"ok   {pin.name}", flush=True)
        finally:
            os.chdir(home)
    report = unused_module_failure()
    failed += report is not None
    print(report or "ok   import-and-serial-sweep")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_stdlib())
