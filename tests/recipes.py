"""Run the two artefact recipes and print the sha256 prefix of every artefact.

Recipe 1 is criterion 10's pipeline (gen-dataset through viz at seed 13 on its
SMOKE config) with dataset.count=6, dataset.styles=3 and eval.count=6. Recipe 2
is recipe 1 plus psrl.mode=contrastive_only, nsd.kind=linear and nsd.lam=0.5.
A change that keeps the artefacts byte-identical prints the same prefixes
before and after it. Each recipe runs in its own temporary directory. The
first line is the BLAS thread setting, which the script fixes at 2 before
numpy loads. Then come, for one phase-A and one phase-B `training_loss`
forward, the MiB the autodiff tape holds after it and the peak during its
backward (tests/measures.py::tape_mib), each measured in a fresh process
with the same BLAS setting, so that nothing the recipes or the other phase
left allocated moves the figure, and last the sizes of src and tests:
all lines, as `find src -name '*.py' | xargs cat | wc -l` counts them, and
code lines, which leave out docstrings, comments and blank lines.

Not a test module (pytest does not collect it). From the repository root:

    PYTHONPATH=src python tests/recipes.py
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

# nsd.ckpt and summary.txt change with the BLAS thread count, so the recipes
# run at the count their recorded prefixes were made with; numpy reads these
# when it is first imported
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from styleinpaint.cli import run  # noqa: E402
from measures import tape_mib  # noqa: E402
from styleinpaint.dataset.io import dataset_read, write_ppm  # noqa: E402
from test_acceptance import SMOKE  # noqa: E402

RECIPE_1 = ["dataset.count=6", "dataset.styles=3", "eval.count=6"]
RECIPES = {
    1: RECIPE_1,
    2: RECIPE_1 + ["psrl.mode=contrastive_only", "nsd.kind=linear", "nsd.lam=0.5"],
}
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ARTEFACTS = ["dataset.s3im", "dataset.s3im.manifest.txt", "psrl.ckpt",
             "psrl_log.csv", "nsd.ckpt", "nsd_log.csv", "inpaint.ppm",
             "report.csv", "summary.txt", "projection.csv"]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def artefact_prefixes(overrides: list[str]) -> list[str]:
    """16-hex-digit sha256 prefixes of ARTEFACTS after one pipeline run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        base = ["--out", out, "--seed", "13"] + SMOKE
        for item in overrides:
            base += ["--set", item]
        scene = os.path.join(tmp, "scene.ppm")
        commands = [["gen-dataset"], ["train-psrl"], ["train-nsd"],
                    ["inpaint", scene, "8,8,24,24", "disc red stripes"],
                    ["eval"], ["viz"]]
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(command + base)
            if code != 0:
                raise SystemExit(f"{command[0]} exited {code}")
            if command[0] == "gen-dataset":
                write_ppm(dataset_read(os.path.join(out, "dataset.s3im"))[0].pixels, scene)
        prefixes = []
        for name in ARTEFACTS:
            with open(os.path.join(out, name), "rb") as f:
                prefixes.append(hashlib.sha256(f.read()).hexdigest()[:16])
        return prefixes


def code_lines(source: str) -> int:
    """Lines that hold a token of code, other than a module, class or
    function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> None:
    if argv[:1] == ["--tape-mib"]:  # one phase's line, in a process of its own
        mib = tape_mib(argv[1])
        print(f"tape MiB, phase {argv[1]}: {mib.held:.1f} held after a training_loss "
              f"forward, {mib.backward_peak:.1f} peak during its backward")
        return
    print(f"OPENBLAS_NUM_THREADS={BLAS_THREADS} OMP_NUM_THREADS={BLAS_THREADS}")
    for number, overrides in RECIPES.items():
        print(f"recipe {number}: " + ", ".join(artefact_prefixes(overrides)))
    for phase in "AB":
        print(subprocess.run([sys.executable, __file__, "--tape-mib", phase], check=True,
                             capture_output=True, text=True).stdout, end="")
    for name, root in (("src", SRC), ("tests", TESTS)):
        files = list(root.rglob("*.py"))
        lines = sum(p.read_bytes().count(b"\n") for p in files)
        code = sum(code_lines(p.read_text(encoding="utf-8")) for p in files)
        print(f"{name} lines: {lines}, code lines: {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
