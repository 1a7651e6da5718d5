"""Mutation checks: each mutant is one plausible defect in the library, and
the tests named with it must catch it.

Run from any directory, with pytest installed:

    python tests/mutants.py

For each mutant the runner copies src/ to a temporary directory, makes the
one edit there, and runs only the named tests against the copy.  A mutant is
killed when those tests fail.  Before that, the named tests must pass on an
unedited copy.  The exit status is 0 only when every mutant is killed; a
surviving mutant, a snippet that does not occur exactly once in its file (the
code moved, so the mutant must be re-aimed) or a test id pytest cannot find
exits 1.  A change to a fast path adds its own mutants here.
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


ALGEBRA, RINGS, BOUNDARY = "kpx/algebra.py", "kpx/rings.py", "kpx/boundary.py"
TEST_ALGEBRA, TEST_RINGS = "tests/test_algebra.py::", "tests/test_rings.py::"

MUTANTS = (
    Mutant(
        "_add keeps zero terms", ALGEBRA,
        "            if new == zero:\n"
        "                terms.pop(key, None)\n"
        "            else:\n"
        "                terms[key] = new\n",
        "            terms[key] = new\n",
        (TEST_ALGEBRA + "test_zero_divisors_leave_no_terms",
         TEST_ALGEBRA + "test_scaling_by_zero_gives_the_zero_form")),
    Mutant(
        "__add__ accumulates into self._terms", ALGEBRA,
        "return SpanForm(self.ring)._add(self._terms.items())._add(other._terms.items())",
        "return self._add(other._terms.items())",
        (TEST_ALGEBRA + "test_derived_forms_are_new_and_termwise",)),
    Mutant(
        "grade shares one form across parts", ALGEBRA,
        "    parts = {}\n"
        "    for (lam, mu), coeff in a._terms.items():\n"
        "        key = degrees.diff(lam.degree, mu.degree)\n"
        "        # the keys of a are distinct and its values non-zero\n"
        "        parts.setdefault(key, SpanForm(a.ring))._terms[lam, mu] = coeff\n",
        "    parts, shared = {}, SpanForm(a.ring)\n"
        "    for (lam, mu), coeff in a._terms.items():\n"
        "        key = degrees.diff(lam.degree, mu.degree)\n"
        "        parts.setdefault(key, shared)._terms[lam, mu] = coeff\n",
        (TEST_ALGEBRA + "test_grade",
         TEST_ALGEBRA + "test_derived_forms_are_new_and_termwise")),
    Mutant(
        "the ring check dropped", ALGEBRA,
        "    if a.ring is not b.ring and a.ring != b.ring:\n"
        '        raise CoefficientNotInRing(f"a form over {a.ring} {op} one over {b.ring}")\n',
        "    pass\n",
        (TEST_RINGS + "test_forms_over_two_rings_do_not_combine",)),
    Mutant(
        "rings compare by identity", RINGS,
        "        return type(other) is type(self) and other.name == self.name\n",
        "        return other is self\n",
        (TEST_RINGS + "test_parse_ring",
         TEST_RINGS + "test_forms_over_two_rings_do_not_combine")),
    Mutant(
        "_primitive_root returns its argument", BOUNDARY,
        "        if power == cycle:\n"
        "            return p\n",
        "        if power == cycle:\n"
        "            return cycle\n",
        ("tests/test_boundary.py::test_primitive_root_by_brute_force",
         "tests/test_boundary.py::test_lasso_canonical_form")),
)


def mutate(src, mutant):
    """Apply mutant's edit to the copy of src/ at src; a snippet that does
    not occur exactly once is an error."""
    path = src / mutant.file
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        raise LookupError(f"{mutant.name}: its snippet occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run_tests(src, tests):
    """pytest's exit code for the named tests run against the kpx under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # pyproject.toml puts the checkout's src/ first on sys.path; point it at
    # the copy instead
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={shlex.quote(str(src))}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def fresh_copy(tmp):
    src = Path(tmp) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kpx-mutants-") as tmp:
        every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = run_tests(fresh_copy(tmp), every)
        if code != 0:
            print(f"the named tests fail on the unedited code (pytest exit {code})")
            return 1
        killed, bad = 0, 0
        for m in MUTANTS:
            src = fresh_copy(tmp)
            try:
                mutate(src, m)
            except LookupError as e:
                print(f"stale     {e}")
                bad += 1
                continue
            t0 = time.perf_counter()
            code = run_tests(src, m.tests)
            # 1: a test failed; 2: collection failed, as when the edit breaks
            # an import; anything else (4: unknown test id) is the runner's fault
            status = {1: "killed", 2: "killed", 0: "SURVIVED"}.get(code, f"error {code}")
            print(f"{status:9} {m.name} ({time.perf_counter() - t0:.1f} s)")
            killed += status == "killed"
            bad += status != "killed"
    print(f"{killed} of {len(MUTANTS)} mutants killed, {bad} not, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
