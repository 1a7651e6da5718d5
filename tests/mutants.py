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


ALGEBRA, RINGS, BOUNDARY, IO = "kpx/algebra.py", "kpx/rings.py", "kpx/boundary.py", "kpx/io.py"
KGRAPH, GROUPOID, ANALYSIS, CLI = "kpx/kgraph.py", "kpx/groupoid.py", "kpx/analysis.py", "kpx/cli.py"
ERRORS, ELEMENTS = "kpx/errors.py", "kpx/elements.py"
TEST_ALGEBRA, TEST_RINGS = "tests/test_algebra.py::", "tests/test_rings.py::"
TEST_KGRAPH, TEST_GROUPOID = "tests/test_kgraph.py::", "tests/test_groupoid.py::"
TEST_ANALYSIS, TEST_CLI = "tests/test_analysis.py::", "tests/test_cli.py::"

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
    Mutant(
        "a residue of another modulus taken", RINGS,
        "        if type(x) is ModInt and x.modulus != self.n:\n",
        "        if False:\n",
        (TEST_RINGS + "test_span_form_takes_residues_of_its_modulus_only",)),
    Mutant(
        "a residue of modulus n taken unreduced", RINGS,
        '        object.__setattr__(self, "value", self.value % self.modulus)\n',
        '        object.__setattr__(self, "value", self.value)\n',
        (TEST_RINGS + "test_modint_values_are_canonical",
         TEST_RINGS + "test_span_form_takes_residues_of_its_modulus_only")),
    Mutant(
        "Ring.value lets a bool in", RINGS,
        "        if type(x) is not int:\n",
        "        if not isinstance(x, int):\n",
        (TEST_RINGS + "test_span_form_rejects_values_outside_the_ring",)),
    Mutant(
        "the reader re-raises ValueError for a long literal of digits", RINGS,
        "        if digits is None:\n"
        "            raise\n",
        "        raise\n",
        (TEST_RINGS + "test_integer_measures_only_literals_too_long_to_convert",
         TEST_CLI + "test_over_long_literals_are_measured_not_echoed",
         TEST_CLI + "test_malformed_document_says_what_is_wrong")),
    Mutant(
        "text writes an int with str", RINGS,
        "        return str(Decimal(int(c)))\n",
        "        raise\n",
        (TEST_CLI + "test_reprs_print_coefficients_past_the_digit_limit",
         TEST_CLI + "test_eval_prints_coefficients_past_the_digit_limit")),
    Mutant(
        "cmd_dim writes with str", CLI,
        '    return EXIT_OK, {"dimension": dim}, [rings.text(dim)]\n',
        '    return EXIT_OK, {"dimension": dim}, [str(dim)]\n',
        (TEST_CLI + "test_dim_counts_large_graphs",)),
    Mutant(
        "the JSON print keeps the digit limit", CLI,
        "                set_limit(0)\n",
        "",
        (TEST_CLI + "test_dim_counts_large_graphs",)),
    Mutant(
        "compose skips the normal form", KGRAPH,
        "                word = tuple(self._normalize_word(lam.edges + mu.edges))\n",
        "                word = lam.edges + mu.edges\n",
        (TEST_KGRAPH + "test_compose_against_oracle_on_products",
         TEST_KGRAPH + "test_compose_against_oracle")),
    Mutant(
        "compose's vertex shortcut returns the vertex", KGRAPH,
        "            if not lam.edges:  # a vertex composes to the other path\n"
        "                out = mu\n",
        "            if not lam.edges:  # a vertex composes to the other path\n"
        "                out = lam\n",
        (TEST_KGRAPH + "test_compose_against_oracle",)),
    Mutant(
        "_sort_word returns early for words of fewer than three edges", KGRAPH,
        "        if len(word) < 2:\n",
        "        if len(word) < 3:\n",
        (TEST_KGRAPH + "test_normal_form_is_color_major",
         TEST_KGRAPH + "test_compose_against_oracle")),
    Mutant(
        # the insertion step is the move of _moves: the chosen edge stops
        # second, behind the edge it should have passed last
        "the move step stops one swap short", KGRAPH,
        "            while i and keys[i - 1] > key:\n",
        "            while i > 1 and keys[i - 1] > key:\n",
        (TEST_KGRAPH + "test_move_table_matches_oracle",
         TEST_KGRAPH + "test_exhaustive_against_oracle")),
    Mutant(
        "the source index keyed by range", KGRAPH,
        "(e.source if by_source else e.range, e.color)",
        "(e.range, e.color)",
        (TEST_KGRAPH + "test_source_index_is_built_on_first_use",
         TEST_KGRAPH + "test_peel_order_against_oracle")),
    Mutant(
        "the byte reader skips the carriage-return translation", IO,
        '    if "\\r" in text:\n'
        '        text = text.replace("\\r\\n", "\\n").replace("\\r", "\\n")\n',
        "",
        (TEST_CLI + "test_graph_files_read_as_text_mode_reads_them",)),
    Mutant(
        # a prefix keeps m[c-1] + 1 edges of each color c the word holds more of
        "_split keys seen > m", KGRAPH,
        "            keys.append((seen[c - 1] >= m[c - 1], c))\n",
        "            keys.append((seen[c - 1] > m[c - 1], c))\n",
        (TEST_KGRAPH + "test_factor_compose_roundtrip_all",
         TEST_KGRAPH + "test_vertex_at_matches_factor")),
    Mutant(
        # N(r(e), k) also counts the words whose colors exceed color(e)
        "count_paths_to reads N(r(e), k)", KGRAPH,
        "rows[edges[eid].range][c - 1]",
        "rows[edges[eid].range][-1]",
        ("tests/test_boundary.py::test_paths_to_and_its_count",
         "tests/test_boundary.py::test_dim_is_sum_of_squared_source_classes")),
    Mutant(
        "paths not interned", KGRAPH,
        "        lam = self._paths.get((v, word))\n",
        "        lam = None\n",
        (TEST_KGRAPH + "test_paths_are_interned",
         TEST_KGRAPH + "test_unknown_vertex")),
    Mutant(
        # MCE is symmetric up to swapping each pair, so one memo entry per
        # unordered pair hands back unswapped pairs for the second order
        "the MCE memo keyed by the unordered pair", KGRAPH,
        "        key = (lam, mu)\n"
        "        out = self._mce.get(key)\n",
        "        key = frozenset((lam, mu))\n"
        "        out = self._mce.get(key)\n",
        (TEST_KGRAPH + "test_mce_both_orders_against_oracle",)),
    Mutant(
        # the move tables feed ext, MCE and the search, so the oracle gates
        # of all three see it
        "_moves keeps only the last cut per edge", KGRAPH,
        "            out[a] = out[a] | {rho} if a in out else frozenset((rho,))\n",
        "            out[a] = frozenset((rho,))\n",
        (TEST_KGRAPH + "test_move_table_matches_oracle",
         TEST_KGRAPH + "test_ext_against_oracle",
         TEST_KGRAPH + "test_witness_matches_search_by_ext")),
    Mutant(
        "_moves skips the sort for j == 1", KGRAPH,
        "            if j:  # move w[j] to the front\n",
        "            if j > 1:  # move w[j] to the front\n",
        (TEST_KGRAPH + "test_mce_both_orders_against_oracle",
         TEST_KGRAPH + "test_exhaustive_against_oracle",
         TEST_KGRAPH + "test_exhaustive_cyclic")),
    Mutant(
        "the goal test reads the state it expands", KGRAPH,
        "                        if not rhos:  # a witness: walk the parent pointers back\n",
        "                        if not S:  # a witness: walk the parent pointers back\n",
        (TEST_KGRAPH + "test_exhaustive_frozen_lambda2",
         TEST_KGRAPH + "test_exhaustive_against_oracle")),
    Mutant(
        "the walk keeps one obligation per step", KGRAPH,
        "                    nxt = nxt | rhos if nxt else rhos\n",
        "                    nxt = rhos\n",
        (TEST_KGRAPH + "test_ext_against_oracle",
         TEST_KGRAPH + "test_mce_both_orders_against_oracle")),
    Mutant(
        "the walk stops one edge early", KGRAPH,
        "        for eid in lam.edges:\n"
        "            if not S:\n",
        "        for eid in lam.edges[:-1]:\n"
        "            if not S:\n",
        (TEST_KGRAPH + "test_ext_against_oracle",
         TEST_KGRAPH + "test_mce_lambda2_frozen")),
    Mutant(
        # a lone obligation ends the walk, which hands it back unmoved
        "the walk stops at a single obligation", KGRAPH,
        "            if not S:\n"
        "                break\n",
        "            if len(S) < 2:\n"
        "                break\n",
        (TEST_KGRAPH + "test_ext_against_oracle",
         TEST_KGRAPH + "test_mce_both_orders_against_oracle")),
    Mutant(
        "MCE splits at the walked path's degree", KGRAPH,
        "        v, word, m = lam.range, lam.edges, mu.degree\n",
        "        v, word, m = lam.range, lam.edges, lam.degree\n",
        (TEST_KGRAPH + "test_mce_lambda2_frozen",
         TEST_KGRAPH + "test_mce_both_orders_against_oracle")),
    Mutant(
        "the successor table keeps the last move dict per edge", KGRAPH,
        "                        succ[a] = succ[a] | rhos if a in succ else rhos\n",
        "                        succ[a] = rhos\n",
        (TEST_KGRAPH + "test_witness_matches_search_by_ext",
         TEST_KGRAPH + "test_exhaustive_against_oracle")),
    Mutant(
        "the search queues the dead successors and drops the live", KGRAPH,
        "                        if paths.get((u, ())) not in rhos:  # no vertex obligation\n",
        "                        if paths.get((u, ())) in rhos:  # no vertex obligation\n",
        (TEST_KGRAPH + "test_exhaustive_cyclic",
         TEST_KGRAPH + "test_witness_matches_search_by_ext")),
    Mutant(
        "the empty-E return dropped", KGRAPH,
        "        if not E:\n"
        "            return root\n",
        "",
        (TEST_KGRAPH + "test_exhaustive_frozen_lambda2",
         TEST_KGRAPH + "test_exhaustive_reads_a_one_shot_iterable_once")),
    Mutant(
        "_cut drops what lies outside every common direction", GROUPOID,
        "    if rem is not None:\n"
        "        diff.append(rem)\n",
        "",
        (TEST_GROUPOID + "test_cell_subtract_pointwise",)),
    Mutant(
        "_cut counts the pieces c2 avoids as common", GROUPOID,
        "                if through is not None:\n"
        "                    diff.append(through)\n",
        "                if through is not None:\n"
        "                    inter.append(through)\n",
        (TEST_GROUPOID + "test_cell_intersect_pointwise",
         TEST_GROUPOID + "test_cell_subtract_pointwise")),
    Mutant(
        "peel_order joins a vertex one edge early", KGRAPH,
        "                        waiting[r] -= 1\n"
        "                        if not waiting[r]:\n",
        "                        waiting[r] -= 1\n"
        "                        if waiting[r] == 1:\n",
        (TEST_KGRAPH + "test_peel_order_against_oracle",)),
    Mutant(
        "peel_order starts from the vertices reversed", KGRAPH,
        "            order = [v for v in self.vertices if not waiting[v]]\n",
        "            order = [v for v in reversed(self.vertices) if not waiting[v]]\n",
        (TEST_KGRAPH + "test_peel_order_against_oracle",
         TEST_KGRAPH + "test_peel_order_on_random_graphs")),
    Mutant(
        "reaching walks forward", KGRAPH,
        "        return self._walk(targets, forward=False)\n",
        "        return self._walk(targets, forward=True)\n",
        (TEST_KGRAPH + "test_peel_order_against_oracle",
         TEST_ANALYSIS + "test_verdicts_against_reference")),
    Mutant(
        "the staircase takes the last edge", ANALYSIS,
        "            edges.append(g.out_edges(v)[0])\n",
        "            edges.append(g.out_edges(v)[-1])\n",
        (TEST_ANALYSIS + "test_verdicts_against_reference",
         TEST_ANALYSIS + "test_cyclic_two_graphs_are_never_found_aperiodic")),
    Mutant(
        "the plain parse takes a broken run", CLI,
        "        elif run and run_end != i - 1:  # argparse splits a broken run differently\n",
        "        elif False:\n",
        (TEST_CLI + "test_plain_parse_agrees_with_argparse",
         TEST_CLI + "test_plain_parse_agrees_on_test_and_workload_argvs")),
    Mutant(
        "the range rule checks only the first path", KGRAPH,
        "        for mu in paths:\n"
        "            if mu.range != v:\n",
        "        for mu in paths[:1]:\n"
        "            if mu.range != v:\n",
        (TEST_KGRAPH + "test_the_range_rule_reads_once_and_names_the_first_stray",
         TEST_CLI + "test_exhaustive_unknown_vertex")),
    Mutant(
        "the range rule compares the source", KGRAPH,
        "            if mu.range != v:\n",
        "            if mu.source != v:\n",
        (TEST_KGRAPH + "test_the_range_rule_reads_once_and_names_the_first_stray",
         TEST_ALGEBRA + "test_kp4_defect")),
    Mutant(
        "_grow skips the vertex check", KGRAPH,
        "        self.vertex(v)\n"
        "        self._check_degree(hi)\n",
        "        self._check_degree(hi)\n",
        (TEST_KGRAPH + "test_unknown_vertex",)),
    Mutant(
        "make_cell's vertex shortcut runs before the range rule", GROUPOID,
        "    avoid = g.at(lam.source, avoid)\n"
        "    if avoid and g.vertex(lam.source) in avoid:\n"
        "        return None  # subtracting the whole cylinder\n",
        "    avoid = tuple(avoid)\n"
        "    if avoid and g.vertex(lam.source) in avoid:\n"
        "        return None  # subtracting the whole cylinder\n"
        "    avoid = g.at(lam.source, avoid)\n",
        (TEST_GROUPOID + "test_cells_refuse_a_path_at_another_vertex",
         TEST_CLI + "test_refine_names_a_stray_avoid_path_in_either_order")),
    Mutant(
        "the identical-cell answer returns ([c1], [c1])", GROUPOID,
        "    if c1 == c2:\n"
        "        return [c1], []\n",
        "    if c1 == c2:\n"
        "        return [c1], [c1]\n",
        (TEST_GROUPOID + "test_cut_of_equal_cells_is_the_cell",
         TEST_GROUPOID + "test_refinement_of_repeated_and_cancelling_cells",
         TEST_CLI + "test_refine_repeated_cells")),
    Mutant(
        "the cut memo is keyed by c1 alone", GROUPOID,
        "    key = (c1, c2)\n",
        "    key = c1\n",
        (TEST_GROUPOID + "test_a_cut_from_the_memo_is_the_fresh_cut[lambda2]",)),
    Mutant(
        "a cut memo hit returns (diff, inter)", GROUPOID,
        "        return hit\n",
        "        return hit[1], hit[0]\n",
        (TEST_GROUPOID + "test_a_cut_from_the_memo_is_the_fresh_cut[lambda2]",)),
    Mutant(
        # the same answer, as cells of two buckets are disjoint, but cuts
        # that the bucket key exists to skip
        "the refinement bucket key drops r(mu)", GROUPOID,
        "        key = (cell.shift_degree, cell.lam.range, cell.mu.range)\n",
        "        key = (cell.shift_degree, cell.lam.range)\n",
        (TEST_GROUPOID + "test_pi_t_refines_each_bucket_alone",)),
    Mutant(
        # MCE(rho, mu) holds the pairs of MCE(mu, rho) swapped
        "multiply reads the MCE memo under (rho, mu)", ALGEBRA,
        "            exts = mce.get((mu, rho))\n",
        "            exts = mce.get((rho, mu))\n",
        (TEST_ALGEBRA + "test_multiply_answers_from_the_graph_memos",
         TEST_ALGEBRA + "test_multiply_matches_oracle")),
    Mutant(
        "the product kernel keeps a term whose sum is zero", ALGEBRA,
        "                if new == zero:\n"
        "                    out.pop(key, None)\n"
        "                else:\n"
        "                    out[key] = new\n",
        "                out[key] = new\n",
        (TEST_ALGEBRA + "test_zero_divisors_leave_no_terms",
         TEST_ALGEBRA + "test_multiply_matches_oracle")),
    Mutant(
        "the product kernel drops the right coefficient", ALGEBRA,
        "                key, rs = (left, right), r * s\n",
        "                key, rs = (left, right), r\n",
        (TEST_ALGEBRA + "test_multiply_matches_oracle",)),
    Mutant(
        "reduce takes a word's coefficient unchecked", ALGEBRA,
        "                terms = SpanForm(ring, {(rho, tau): coeff})._terms  # the caller's value\n",
        "                terms = {(rho, tau): coeff}\n",
        (TEST_ALGEBRA + "test_reduce_checks_each_word_coefficient",
         TEST_ALGEBRA + "test_derived_operations_check_nothing")),
    Mutant(
        "degrees.le is strict", "kpx/degrees.py",
        "    return all(map(operator.le, m, n))\n",
        "    return all(map(operator.lt, m, n))\n",
        ("tests/test_rings.py::test_degree_helpers_match_their_definitions",)),
    Mutant(
        "func_from_terms keeps the new coefficient of an overlap", GROUPOID,
        "                entries += [(s + coeff, piece) for piece in inter]\n",
        "                entries += [(coeff, piece) for piece in inter]\n",
        (TEST_GROUPOID + "test_func_from_terms_accumulates",
         TEST_GROUPOID + "test_func_semantics")),
    Mutant(
        # the same answer, since nested members add nothing to the union of
        # cylinders, but a search over larger obligation sets
        "make_cell passes the non-canonical avoid set to the search", GROUPOID,
        "    if canonical and g.is_exhaustive(lam.source, canonical):",
        "    if canonical and g.is_exhaustive(lam.source, frozenset(avoid)):",
        (TEST_KGRAPH + "test_make_cell_searches_the_canonical_set",)),
    Mutant(
        # a residue equals no int, so a cancelled term would stay as a zero
        "boundary_rep tests a ring value against the int 0", BOUNDARY,
        "            if new == a.ring.zero:\n",
        "            if new == 0:\n",
        ("tests/test_boundary.py::test_boundary_rep_drops_a_term_that_cancels_mod_n",)),
    Mutant(
        "long labels start at 34 characters", ERRORS,
        "    if type(literal) is str and len(literal) > 32:\n",
        "    if type(literal) is str and len(literal) > 33:\n",
        (TEST_KGRAPH + "test_path_repr_shortens_a_label_past_32_characters",)),
    Mutant(
        # make_cell's range rule is the one check of the direction
        "cell_split skips the range check of its direction", GROUPOID,
        "    avoiding = make_cell(cell.lam, cell.mu, cell.avoid | {gamma})\n",
        "    avoiding = Cell(cell.lam, cell.mu, cell.avoid | {gamma})\n",
        (TEST_GROUPOID + "test_cells_refuse_a_path_at_another_vertex",)),
    Mutant(
        # v2 at v1 is a stray before it is a trivial direction
        "cell_split refuses a trivial direction before its range check", GROUPOID,
        "    avoiding = make_cell(cell.lam, cell.mu, cell.avoid | {gamma})\n"
        "    if gamma.is_vertex():\n"
        "        raise DegreeOutOfRange(\"cannot split along a trivial direction\")\n",
        "    if gamma.is_vertex():\n"
        "        raise DegreeOutOfRange(\"cannot split along a trivial direction\")\n"
        "    avoiding = make_cell(cell.lam, cell.mu, cell.avoid | {gamma})\n",
        (TEST_GROUPOID + "test_cells_refuse_a_path_at_another_vertex",)),
    Mutant(
        # a placeholder left by a parse that raised
        "the literal cache stores a failed parse", KGRAPH,
        "        lam = self._literals.get(text)\n",
        "        lam = self._literals.setdefault(text, None)\n",
        (TEST_KGRAPH + "test_a_bad_literal_raises_each_time_and_is_not_stored",)),
    Mutant(
        "the literal cache keyed by the first edge id", KGRAPH,
        "        lam = self._literals.get(text)\n",
        '        lam = self._literals.get(text.partition(".")[0])\n',
        (TEST_KGRAPH + "test_parse_path_is_the_built_path_for_every_spelling[lambda2]",)),
    Mutant(
        "a '-' term's sign is flipped", ELEMENTS,
        '            words.append(self.term(1 if c == "+" else -1))\n',
        "            words.append(self.term(1))\n",
        (TEST_CLI + "test_element_signs_and_whitespace",)),
    Mutant(
        # peek's skip stops before the last character, so the trailing-input
        # check meets a trailing space, as does the check for an end of input
        "the trailing-input check no longer skips whitespace", ELEMENTS,
        "        while pos < len(text) and text[pos].isspace():\n",
        "        while pos < len(text) - 1 and text[pos].isspace():\n",
        (TEST_CLI + "test_element_signs_and_whitespace",
         TEST_CLI + "test_element_parse_errors_around_whitespace")),
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
