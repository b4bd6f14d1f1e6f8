"""``tools/mutants.py`` without running a mutant: its sites, its seeded
sample and the mutants it writes."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

MODULE = '''\
LIMIT = 1


def f(x, y, items):
    """A docstring: 0 < 1 and 1 - 0 are no code."""
    if x < y and y >= 1 or x is None:
        return x + 1, True
    return [i - 0 for i in items
            if i not in items and i == x and i != y and i <= 0 and i > 1 and i is not y or i in y]


class C:
    def g(self, n):
        return n - (1 + n) > 0
'''

_MUTATIONS = {
    "< -> <=", "<= -> <", "> -> >=", ">= -> >", "== -> !=", "!= -> ==", "is -> is not",
    "is not -> is", "in -> not in", "not in -> in", "+ -> -", "- -> +", "0 -> 1", "1 -> 0",
    "and -> or", "or -> and",
}


def _nodes(text):
    """Each AST node of ``text`` as its type and its fields that are no nodes."""
    return [(type(node).__name__, *(value for _, value in ast.iter_fields(node)
                                    if not isinstance(value, (ast.AST, list))))
            for node in ast.walk(ast.parse(text))]


def test_every_mutation_kind_is_found_and_no_bool():
    found = mutants.sites(MODULE)
    assert {site.mutation for site in found} == _MUTATIONS
    assert sum(site.old == "and" for site in found) == 2  # six operands, one site
    assert mutants.sites(MODULE, "C.g") == [site for site in found if site.line == 14]
    assert [site.mutation for site in mutants.sites(MODULE, "C.g")] == [
        "- -> +", "1 -> 0", "+ -> -", "> -> >=", "0 -> 1"]


def test_each_mutant_compiles_and_differs_at_its_site_only():
    lines = MODULE.splitlines()
    original = _nodes(MODULE)
    for site in mutants.sites(MODULE):
        mutant = mutants.mutate(MODULE, site)
        compile(mutant, "mutant.py", "exec")
        changed = [(x, y) for x, y in zip(original, _nodes(mutant)) if x != y]
        assert len(changed) == 1 and len(_nodes(mutant)) == len(original), site
        assert [i for i, line in enumerate(mutant.splitlines(), 1) if line != lines[i - 1]] == [
            site.line]
        assert lines[site.line - 1][site.column - 1:].startswith(site.old)


def test_a_module_sample_repeats_for_the_fixed_seed():
    first, second = mutants.target("threads"), mutants.target("threads")
    assert first == second and len(first.sites) == mutants.SAMPLE_SIZE
    assert set(first.sites) < set(mutants.sites((mutants.ROOT / first.path).read_text()))
    assert [site.mutation for site in mutants.target("services._inc").sites] == ["+ -> -", "1 -> 0"]
